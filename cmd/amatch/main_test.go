package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"approxmatch"
)

// Two labeled triangles sharing no vertex, plus an open wedge: enough work
// that a one-unit budget is exhausted before any level completes.
const testGraph = `v 0 1
v 1 2
v 2 3
v 3 1
v 4 2
v 5 3
0 1
1 2
0 2
3 4
4 5
`

const testTemplate = `v 0 1
v 1 2
v 2 3
e 0 1
e 1 2
e 0 2
`

// The wedge has an absent edge (0-2), so -flips has a variant to search
// after the base template — the triangle has none.
const wedgeTemplate = `v 0 1
v 1 2
v 2 3
e 0 1
e 1 2
`

func writeInputs(t *testing.T) (graphPath, trianglePath, wedgePath string) {
	t.Helper()
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.txt")
	trianglePath = filepath.Join(dir, "triangle.txt")
	wedgePath = filepath.Join(dir, "wedge.txt")
	for path, text := range map[string]string{graphPath: testGraph, trianglePath: testTemplate, wedgePath: wedgeTemplate} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return graphPath, trianglePath, wedgePath
}

// TestEveryModeSeesTheBudget runs each amatch mode under -max-work 1. Modes
// with an anytime-partial contract must print the partial banner; modes
// without one must abort with ErrBudgetExhausted. A mode that silently drops
// the flag (as -topdown once did) runs to completion and fails here. Each
// mode first runs unbudgeted as the control: it finishes, so the budgeted run
// is observing the budget and nothing else.
func TestEveryModeSeesTheBudget(t *testing.T) {
	g, tpl, wedge := writeInputs(t)
	for _, tc := range []struct {
		name    string
		args    []string
		partial bool // true: exit 0 with the banner; false: ErrBudgetExhausted
	}{
		{"plain", []string{"-template", tpl}, true},
		{"batch", []string{"-template", tpl + "," + tpl}, true},
		{"ranks", []string{"-template", tpl, "-ranks", "2"}, true},
		{"topdown", []string{"-template", tpl, "-topdown"}, false},
		{"flips", []string{"-template", wedge, "-flips"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-graph", g, "-k", "1", "-count"}, tc.args...)
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("unbudgeted run: %v", err)
			}
			if strings.Contains(out.String(), "budget exhausted") {
				t.Fatalf("unbudgeted run reported exhaustion:\n%s", out.String())
			}

			out.Reset()
			err := run(context.Background(), append(args, "-max-work", "1"), &out)
			if tc.partial {
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !strings.Contains(out.String(), "NOTE: budget exhausted") {
					t.Fatalf("-max-work 1 ignored: no partial banner in\n%s", out.String())
				}
			} else if !errors.Is(err, approxmatch.ErrBudgetExhausted) {
				t.Fatalf("-max-work 1 ignored: err = %v, output\n%s", err, out.String())
			}
		})
	}
}

// TestRanksPrintsThePlainRunsPrototypes checks -ranks goes through the plain
// run's printing path: the same prototype lines, the same work and phase
// summaries, plus the distributed runtime's message line.
func TestRanksPrintsThePlainRunsPrototypes(t *testing.T) {
	g, tpl, _ := writeInputs(t)
	output := func(extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		args := append([]string{"-graph", g, "-template", tpl, "-k", "1", "-count"}, extra...)
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	prefixed := func(text, prefix string) []string {
		var lines []string
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, prefix) {
				lines = append(lines, line)
			}
		}
		return lines
	}
	plain, ranks := output(), output("-ranks", "2")
	want, got := prefixed(plain, "  δ="), prefixed(ranks, "  δ=")
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("-ranks 2 prototype lines\n%s\nwant the plain run's\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, prefix := range []string{"work: ", "phases: ", "messages: "} {
		if len(prefixed(ranks, prefix)) != 1 {
			t.Errorf("-ranks 2 output has no %q line:\n%s", prefix, ranks)
		}
	}
}
