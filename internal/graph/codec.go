package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text codec for graph datasets in the gSpan-style transaction format used
// throughout the graph-query literature (and by the AIDS dataset tooling):
//
//	t # <id> [directed]
//	v <vertex-id> <label>
//	e <u> <v> [edge-label]
//
// Vertices must be declared before edges reference them; vertex ids within
// a graph must be consecutive from 0. Lines starting with "//" and blank
// lines are ignored. The optional "directed" marker and edge labels carry
// the generalized graph types; plain files remain fully compatible.

// WriteGraph writes a single graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Directed() {
		fmt.Fprintf(bw, "t # %d directed\n", g.ID())
	} else {
		fmt.Fprintf(bw, "t # %d\n", g.ID())
	}
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "v %d %d\n", v, g.Label(v))
	}
	labelled := g.HasEdgeLabels()
	for _, e := range g.Edges() {
		if labelled {
			fmt.Fprintf(bw, "e %d %d %d\n", e[0], e[1], g.EdgeLabel(e[0], e[1]))
		} else {
			fmt.Fprintf(bw, "e %d %d\n", e[0], e[1])
		}
	}
	return bw.Flush()
}

// WriteAll writes the graphs consecutively in the text format.
func WriteAll(w io.Writer, gs []*Graph) error {
	for _, g := range gs {
		if err := WriteGraph(w, g); err != nil {
			return err
		}
	}
	return nil
}

// ParseError describes a syntax error in the text format with its 1-based
// line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("graph: parse error at line %d: %s", e.Line, e.Msg)
}

// ReadAll parses all graphs from r in the text format.
func ReadAll(r io.Reader) ([]*Graph, error) {
	// The buffer starts small (a query pattern is a few hundred bytes)
	// and the scanner grows it on demand up to the 16 MiB line limit.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4*1024), 16*1024*1024)

	type edgeRec struct {
		u, v     int
		label    Label
		hasLabel bool
	}
	var (
		out      []*Graph
		labels   []Label
		edges    []edgeRec
		gid      int
		directed bool
		open     bool
		line     int
	)
	fail := func(msg string, args ...any) error {
		return &ParseError{line, fmt.Sprintf(msg, args...)}
	}
	finish := func() error {
		if !open {
			return nil
		}
		b := NewBuilder(len(labels)).SetID(gid).SetLabels(labels)
		if directed {
			b.Directed()
		}
		for _, e := range edges {
			if e.hasLabel {
				b.AddLabeledEdge(e.u, e.v, e.label)
			} else {
				b.AddEdge(e.u, e.v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return &ParseError{line, err.Error()}
		}
		out = append(out, g)
		labels, edges, open, directed = nil, nil, false, false
		return nil
	}

	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "//") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "t":
			if err := finish(); err != nil {
				return nil, err
			}
			if (len(fields) != 3 && len(fields) != 4) || fields[1] != "#" {
				return nil, fail("want %q, got %q", "t # <id> [directed]", text)
			}
			if len(fields) == 4 {
				if fields[3] != "directed" {
					return nil, fail("unknown graph flag %q", fields[3])
				}
				directed = true
			}
			id, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fail("bad graph id %q", fields[2])
			}
			gid, open = id, true
		case "v":
			if !open {
				return nil, fail("vertex line before any 't' line")
			}
			if len(fields) != 3 {
				return nil, fail("want %q, got %q", "v <id> <label>", text)
			}
			vid, err1 := strconv.Atoi(fields[1])
			lab, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || lab < 0 || lab > 0xFFFF {
				return nil, fail("bad vertex line %q", text)
			}
			if vid != len(labels) {
				return nil, fail("vertex ids must be consecutive from 0; got %d, want %d", vid, len(labels))
			}
			labels = append(labels, Label(lab))
		case "e":
			if !open {
				return nil, fail("edge line before any 't' line")
			}
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fail("want %q, got %q", "e <u> <v> [label]", text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fail("bad edge line %q", text)
			}
			if u < 0 || u >= len(labels) || v < 0 || v >= len(labels) {
				return nil, fail("edge {%d,%d} references undeclared vertex", u, v)
			}
			rec := edgeRec{u: u, v: v}
			if len(fields) == 4 {
				el, err := strconv.Atoi(fields[3])
				if err != nil || el < 0 || el > 0xFFFF {
					return nil, fail("bad edge label %q", fields[3])
				}
				rec.label, rec.hasLabel = Label(el), true
			}
			edges = append(edges, rec)
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}
