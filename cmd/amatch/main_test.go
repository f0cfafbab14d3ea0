package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"approxmatch"
	"approxmatch/internal/pattern"
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

// The triangle with its vertices renumbered and its edges listed in another
// order and direction: isomorphic to testTemplate.
const relabeledTriangle = `v 0 3
v 1 1
v 2 2
e 2 1
e 0 2
e 1 0
`

// TestBatchReusesIsomorphicResults checks batch mode's cross-template reuse:
// an isomorphic repeat is answered from the retained result with the same
// prototype lines, a template too symmetric to canonicalize within the
// admission cap runs every time, and -result-cache-bytes 0 turns reuse off.
// The over-cap template is a one-label double star, two adjacent centres
// with four leaves each: colour refinement leaves a cell of 2 centres and
// one of 8 leaves, 2!·8! = 80,640 permutations. (A one-label K9 is over the
// cap too, but the pipeline's cycle constraints for it do not fit in memory.)
func TestBatchReusesIsomorphicResults(t *testing.T) {
	g, tpl, _ := writeInputs(t)
	dir := t.TempDir()
	relabeled := filepath.Join(dir, "relabeled.txt")
	star := filepath.Join(dir, "doublestar.txt")
	var doubleStar strings.Builder
	for v := 0; v < 10; v++ {
		fmt.Fprintf(&doubleStar, "v %d 1\n", v)
	}
	doubleStar.WriteString("e 0 1\n")
	for leaf := 2; leaf < 10; leaf++ {
		fmt.Fprintf(&doubleStar, "e %d %d\n", leaf%2, leaf)
	}
	for path, text := range map[string]string{relabeled: relabeledTriangle, star: doubleStar.String()} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := loadTemplate(star); err != nil || pattern.CanonicalCost(st) <= 1<<16 {
		t.Fatalf("double star must be over the canonicalization cap: err %v", err)
	}
	// sections splits batch output into each template's header line and its
	// prototype lines.
	sections := func(text string) (headers []string, protos [][]string) {
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(line, "template "):
				headers = append(headers, line)
				protos = append(protos, nil)
			case strings.HasPrefix(line, "  δ=") && len(protos) > 0:
				protos[len(protos)-1] = append(protos[len(protos)-1], line)
			}
		}
		return headers, protos
	}
	for _, tc := range []struct {
		name   string
		args   []string
		reused bool
	}{
		{"isomorphic", []string{"-template", tpl + "," + relabeled, "-k", "1"}, true},
		{"over-cap", []string{"-template", star + "," + star, "-k", "0"}, false},
		{"cache-off", []string{"-template", tpl + "," + relabeled, "-k", "1", "-result-cache-bytes", "0"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), append([]string{"-graph", g, "-count"}, tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			headers, protos := sections(out.String())
			if len(headers) != 2 {
				t.Fatalf("want 2 template sections, got %d:\n%s", len(headers), out.String())
			}
			reused := strings.HasSuffix(headers[1], "isomorphic to template 0, result reused")
			if reused != tc.reused {
				t.Fatalf("second template reused = %v, want %v:\n%s", reused, tc.reused, out.String())
			}
			if len(protos[0]) == 0 || strings.Join(protos[1], "\n") != strings.Join(protos[0], "\n") {
				t.Fatalf("prototype lines differ between the two templates:\n%s", out.String())
			}
		})
	}
}
