package graph

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	gs := []*Graph{
		MustNew([]Label{1, 2, 3}, [][2]int{{0, 1}, {1, 2}}).WithID(0),
		MustNew([]Label{7}, nil).WithID(1),
		MustNew([]Label{0, 0, 0, 0}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}}).WithID(2),
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, gs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gs) {
		t.Fatalf("read %d graphs, want %d", len(back), len(gs))
	}
	for i, g := range gs {
		h := back[i]
		if h.ID() != g.ID() || h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("graph %d mismatch: %v vs %v", i, h, g)
		}
		for v := 0; v < g.N(); v++ {
			if h.Label(v) != g.Label(v) {
				t.Fatalf("graph %d label %d mismatch", i, v)
			}
		}
		ge, he := g.Edges(), h.Edges()
		for j := range ge {
			if ge[j] != he[j] {
				t.Fatalf("graph %d edge %d mismatch", i, j)
			}
		}
	}
}

func TestCodecIgnoresCommentsAndBlankLines(t *testing.T) {
	in := `
// a comment
t # 5

v 0 10
v 1 11
// another
e 0 1
`
	gs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].ID() != 5 || gs[0].N() != 2 || gs[0].M() != 1 {
		t.Fatalf("parsed %v", gs)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name, in string
		wantLine int
	}{
		{"vertex before t", "v 0 1\n", 1},
		{"edge before t", "e 0 1\n", 1},
		{"bad t", "t 0\n", 1},
		{"bad id", "t # x\n", 1},
		{"nonconsecutive vid", "t # 0\nv 1 0\n", 2},
		{"bad label", "t # 0\nv 0 -2\n", 2},
		{"label overflow", "t # 0\nv 0 70000\n", 2},
		{"edge undeclared", "t # 0\nv 0 1\ne 0 1\n", 3},
		{"self loop", "t # 0\nv 0 1\ne 0 0\n", 3},
		{"junk directive", "t # 0\nx y z\n", 2},
		{"malformed edge", "t # 0\nv 0 1\nv 1 1\ne 0\n", 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadAll(strings.NewReader(c.in))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			}
			if pe.Line != c.wantLine {
				t.Errorf("error line = %d, want %d (%v)", pe.Line, c.wantLine, err)
			}
		})
	}
}

func TestCodecEmptyInput(t *testing.T) {
	gs, err := ReadAll(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Fatalf("want no graphs, got %d", len(gs))
	}
}

func TestCodecSelfLoopErrorSurfacesFromBuilder(t *testing.T) {
	// The self-loop is caught at Build time but must still be a ParseError.
	_, err := ReadAll(strings.NewReader("t # 0\nv 0 1\nv 1 1\ne 1 1\n"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
}

// TestCodecLongLines pins the line-length contract of ReadAll: the
// scanner buffer starts small but grows, so a single line longer than
// 64 KiB parses (or fails with its line number) exactly like a short
// one, and only a line past the 16 MiB limit is refused.
func TestCodecLongLines(t *testing.T) {
	pad := strings.Repeat(" ", 100*1024)
	comment := "// " + strings.Repeat("c", 100*1024)

	gs, err := ReadAll(strings.NewReader(comment + "\nt # 3\nv 0" + pad + "7\nv 1 2\ne 0" + pad + "1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].ID() != 3 || gs[0].N() != 2 || gs[0].M() != 1 || gs[0].Label(0) != 7 {
		t.Fatalf("parsed %v", gs)
	}

	_, err = ReadAll(strings.NewReader("t # 0\n" + comment + "\nv 0 " + strings.Repeat("9", 100*1024) + "\n"))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 3 {
		t.Fatalf("want a ParseError at line 3, got %v", err)
	}

	_, err = ReadAll(strings.NewReader("t # 0\n// " + strings.Repeat("c", 16*1024*1024) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a line past 16 MiB: want bufio.ErrTooLong, got %v", err)
	}
}
