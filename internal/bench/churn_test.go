package bench

import "testing"

func TestRunChurnComparison(t *testing.T) {
	cmp, err := RunChurnComparison(2018, 80, 160, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Mutations < 4 {
		t.Fatalf("only %d mutations fired", cmp.Mutations)
	}
	if cmp.Maintained.Queries != cmp.Rebuild.Queries || cmp.Maintained.Queries != 160 {
		t.Fatalf("query counts diverge: %d vs %d", cmp.Maintained.Queries, cmp.Rebuild.Queries)
	}
	// The whole point: exact maintenance must beat cold rebuilds on the
	// total sub-iso bill (answer equality is asserted inside the runner).
	if !cmp.MaintainedWins() {
		t.Fatalf("maintained cache did not win: %d tests (incl. %d maintenance) vs %d",
			cmp.Maintained.TotalTests(), cmp.Maintained.MaintenanceTests, cmp.Rebuild.TotalTests())
	}
	if cmp.Maintained.MaintenanceTests == 0 {
		t.Error("no maintenance tests recorded: additions never reconciled")
	}
	if cmp.TestReduction() <= 0 {
		t.Errorf("test reduction %.3f, want > 0", cmp.TestReduction())
	}
	// The stream is add-heavy and both passes mutate identically.
	if cmp.Maintained.Adds <= cmp.Maintained.Removes {
		t.Errorf("stream not add-heavy: %d adds vs %d removes", cmp.Maintained.Adds, cmp.Maintained.Removes)
	}
	if cmp.Maintained.Adds != cmp.Rebuild.Adds || cmp.Maintained.Removes != cmp.Rebuild.Removes {
		t.Errorf("mutation mixes diverge: %d/%d vs %d/%d",
			cmp.Maintained.Adds, cmp.Maintained.Removes, cmp.Rebuild.Adds, cmp.Rebuild.Removes)
	}
	// The maintained pass patches the GGSX trie incrementally; the rebuild
	// baseline re-indexes the dataset on every addition.
	if cmp.Maintained.FilterRebuilds != 0 || cmp.Maintained.FilterInserts != int64(cmp.Maintained.Adds) {
		t.Errorf("maintained filter path: %d inserts / %d rebuilds, want %d / 0",
			cmp.Maintained.FilterInserts, cmp.Maintained.FilterRebuilds, cmp.Maintained.Adds)
	}
	if cmp.Rebuild.FilterInserts != 0 || cmp.Rebuild.FilterRebuilds != int64(cmp.Rebuild.Adds) {
		t.Errorf("rebuild filter path: %d inserts / %d rebuilds, want 0 / %d",
			cmp.Rebuild.FilterInserts, cmp.Rebuild.FilterRebuilds, cmp.Rebuild.Adds)
	}
	if cmp.Maintained.AvgAddLatency() <= 0 {
		t.Error("no addition latency recorded")
	}
}
