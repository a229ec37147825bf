package bench

import (
	"fmt"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// ChurnStats summarizes one strategy's pass over the identical
// query/mutation stream.
type ChurnStats struct {
	Queries   int
	Mutations int
	Elapsed   time.Duration
	QPS       float64
	// DatasetTests counts the dataset sub-iso tests the queries executed;
	// MaintenanceTests counts the containment tests spent keeping cached
	// answer sets exact across mutations (0 for the drop-and-rebuild
	// strategy, which pays in DatasetTests instead by re-warming).
	DatasetTests     int64
	MaintenanceTests int64
	TestsSaved       int64
	ExactHits        int64
	// Adds / Removes split the mutations; AddNs / RemoveNs total the wall
	// time of each strategy's WHOLE mutation path — for the maintained
	// cache that includes eager answer-set reconciliation against every
	// resident entry, for the rebuild baseline only the method-level
	// mutation (its maintenance bill lands in query-time re-warming
	// instead). FilterMaintainNs isolates the one step both strategies
	// perform identically — maintaining the filter index for the added
	// graph — so ITS comparison is the O(graph) incremental insert against
	// the O(dataset) rebuild over the same work.
	Adds, Removes    int
	AddNs, RemoveNs  int64
	FilterMaintainNs int64
	// FilterInserts / FilterRebuilds report how the strategy's method
	// maintained its filter across the additions.
	FilterInserts  int64
	FilterRebuilds int64
}

// TotalTests is the strategy's full sub-iso bill: query-time tests plus
// maintenance tests.
func (s ChurnStats) TotalTests() int64 { return s.DatasetTests + s.MaintenanceTests }

// AvgAddLatency returns the mean wall time of one dataset addition along
// the strategy's full mutation path (see the AddNs field for what each
// strategy's path includes), 0 when no addition ran.
func (s ChurnStats) AvgAddLatency() time.Duration {
	if s.Adds == 0 {
		return 0
	}
	return time.Duration(s.AddNs / int64(s.Adds))
}

// AvgFilterMaintain returns the mean wall time one addition spent
// maintaining the filter index alone — identical work in both
// strategies, hence the apples-to-apples insert-vs-rebuild column.
func (s ChurnStats) AvgFilterMaintain() time.Duration {
	if s.Adds == 0 {
		return 0
	}
	return time.Duration(s.FilterMaintainNs / int64(s.Adds))
}

// AvgRemoveLatency returns the mean wall time of one dataset removal.
func (s ChurnStats) AvgRemoveLatency() time.Duration {
	if s.Removes == 0 {
		return 0
	}
	return time.Duration(s.RemoveNs / int64(s.Removes))
}

// ChurnComparison reports exact cache maintenance against the naive
// drop-cache-and-rebuild strategy over the identical mixed, add-heavy
// query/add/remove stream (two of every three mutations are additions —
// the regime where incremental index maintenance matters). Answers are
// cross-checked byte-identical between the two strategies inside
// RunChurnComparison.
type ChurnComparison struct {
	DatasetSize int
	Queries     int
	Mutations   int
	// Maintained keeps ONE cache across the whole stream: removals clear
	// answer bits stop-the-world, additions verify the new graph against
	// the cached entries (eager mode) and patch the GGSX trie through the
	// incremental O(graph) insert.
	Maintained ChurnStats
	// Rebuild is the pre-maintenance world: the cache is dropped at every
	// mutation and starts cold, and every addition rebuilds the filter
	// from scratch (ftv.RebuildOnly forces the O(dataset) factory path) —
	// the only correct strategy available without maintenance support.
	Rebuild ChurnStats
}

// MaintainedWins reports whether maintenance beat drop-and-rebuild on the
// total sub-iso bill (the deterministic metric; wall time follows it).
func (c *ChurnComparison) MaintainedWins() bool {
	return c.Maintained.TotalTests() < c.Rebuild.TotalTests()
}

// TestReduction returns the fraction of the rebuild strategy's sub-iso
// bill that maintenance saved (0.35 = 35% fewer tests).
func (c *ChurnComparison) TestReduction() float64 {
	if c.Rebuild.TotalTests() == 0 {
		return 0
	}
	return 1 - float64(c.Maintained.TotalTests())/float64(c.Rebuild.TotalTests())
}

// churnPlan precomputes the interleaved stream: after every `interval`
// queries one mutation fires — add-heavy, two additions (from the extras
// pool) for every removal (pseudo-random live gid — identical picks in
// both strategies because the live sets evolve identically).
type churnPlan struct {
	queries []core.Request
	extras  []*graph.Graph
	// interval queries elapse between mutations; maxMutations caps the
	// total so flooring the interval can never overshoot the requested
	// count (an uncapped plan fires up to mutations+1 times).
	interval     int
	maxMutations int
}

// wantsAdd reports whether mutation m of the plan is an addition: two of
// every three are, matching a dataset that mostly grows.
func wantsAdd(m int) bool { return m%3 != 2 }

// runChurnPass drives the plan through one strategy. rebuild == nil keeps
// one maintained cache; otherwise rebuild is called at every mutation to
// produce the next (cold) cache.
func runChurnPass(plan churnPlan, method *ftv.Method, cfg core.Config, drop bool) (ChurnStats, []string, error) {
	cache, err := core.New(method, cfg)
	if err != nil {
		return ChurnStats{}, nil, err
	}
	caches := []*core.Cache{cache}
	answers := make([]string, 0, len(plan.queries))
	rng := newRand(4242)
	nextExtra := 0
	mutations := 0

	var stats ChurnStats
	t0 := time.Now()
	for i, req := range plan.queries {
		res, err := cache.Execute(req.Graph, req.Type)
		if err != nil {
			return ChurnStats{}, nil, fmt.Errorf("query %d: %w", i, err)
		}
		answers = append(answers, res.Answers.String())
		if (i+1)%plan.interval != 0 || mutations >= plan.maxMutations {
			continue
		}
		if wantsAdd(mutations) && nextExtra < len(plan.extras) {
			tm := time.Now()
			if drop {
				if _, err := method.AddGraph(plan.extras[nextExtra]); err != nil {
					return ChurnStats{}, nil, err
				}
			} else if _, err := cache.AddGraph(plan.extras[nextExtra]); err != nil {
				return ChurnStats{}, nil, err
			}
			stats.AddNs += time.Since(tm).Nanoseconds()
			stats.Adds++
			nextExtra++
		} else {
			view := method.View()
			if view.LiveCount() <= 1 {
				continue
			}
			gid := rng.Intn(view.Size())
			for view.Graph(gid) == nil {
				gid = (gid + 1) % view.Size()
			}
			tm := time.Now()
			if drop {
				if err := method.RemoveGraph(gid); err != nil {
					return ChurnStats{}, nil, err
				}
			} else if err := cache.RemoveGraph(gid); err != nil {
				return ChurnStats{}, nil, err
			}
			stats.RemoveNs += time.Since(tm).Nanoseconds()
			stats.Removes++
		}
		mutations++
		if drop {
			// The rebuild strategy has no maintenance: the only sound move
			// after a mutation is an empty cache over the mutated dataset.
			cache, err = core.New(method, cfg)
			if err != nil {
				return ChurnStats{}, nil, err
			}
			caches = append(caches, cache)
		}
	}
	elapsed := time.Since(t0)

	for _, c := range caches {
		snap := c.Stats()
		stats.DatasetTests += snap.TestsExecuted
		stats.MaintenanceTests += snap.MaintenanceTests
		stats.TestsSaved += snap.TestsSaved
		stats.ExactHits += snap.ExactHits
	}
	stats.FilterInserts = method.FilterInserts()
	stats.FilterRebuilds = method.FilterRebuilds()
	stats.FilterMaintainNs = method.FilterMaintainNs()
	stats.Queries = len(plan.queries)
	stats.Mutations = mutations
	stats.Elapsed = elapsed
	stats.QPS = float64(len(plan.queries)) / elapsed.Seconds()
	return stats, answers, nil
}

// RunChurnComparison measures exact cache maintenance against
// drop-cache-and-rebuild over one add-heavy mixed query stream with
// `mutations` interleaved dataset mutations, and cross-checks that both
// strategies returned byte-identical answers for every query (they must:
// both are exact). Reported errors include any answer divergence — the
// comparison doubles as an end-to-end churn oracle. The maintained pass
// runs the incremental-insert GGSX method; the rebuild pass wraps the
// same filter in ftv.RebuildOnly, so the mutation-latency columns
// compare O(graph) inserts against the O(dataset) rebuild baseline over
// identical work.
func RunChurnComparison(seed int64, datasetSize, queries, mutations int) (*ChurnComparison, error) {
	if mutations < 2 {
		mutations = 2
	}
	dataset := MoleculeDataset(seed, datasetSize)
	extras := MoleculeDataset(seed+1, mutations) // oversupplied: at most ~2/3 are consumed
	w, err := gen.NewWorkload(newRand(seed+9), dataset, gen.WorkloadConfig{
		Size: queries, Mixed: true, PoolSize: max(queries/3, 8),
		ZipfS: 1.2, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 12,
	})
	if err != nil {
		return nil, err
	}
	plan := churnPlan{
		queries:      make([]core.Request, len(w.Queries)),
		extras:       extras,
		interval:     max(queries/(mutations+1), 1),
		maxMutations: mutations,
	}
	for i, q := range w.Queries {
		plan.queries[i] = core.Request{Graph: q.G, Type: q.Type}
	}

	cfg := core.DefaultConfig()
	cfg.Shards = 1 // sequential comparison: deterministic contents

	maintained, ansM, err := runChurnPass(plan, ftv.NewGGSXMethod(dataset, 3), cfg, false)
	if err != nil {
		return nil, fmt.Errorf("maintained pass: %w", err)
	}
	rebuildMethod := ftv.NewDynamicMethod("ggsx-rebuild/vf2", dataset,
		func(ds []*graph.Graph) ftv.Filter { return ftv.RebuildOnly(ftv.NewGGSX(ds, 3)) }, nil)
	rebuild, ansR, err := runChurnPass(plan, rebuildMethod, cfg, true)
	if err != nil {
		return nil, fmt.Errorf("rebuild pass: %w", err)
	}
	for i := range ansM {
		if ansM[i] != ansR[i] {
			return nil, fmt.Errorf("churn answers diverge at query %d: maintained %s, rebuild %s", i, ansM[i], ansR[i])
		}
	}
	return &ChurnComparison{
		DatasetSize: datasetSize,
		Queries:     maintained.Queries,
		Mutations:   maintained.Mutations,
		Maintained:  maintained,
		Rebuild:     rebuild,
	}, nil
}
