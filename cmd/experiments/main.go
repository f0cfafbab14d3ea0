// Command experiments prints every table and figure of the paper's
// evaluation (§5) on the synthetic stand-in datasets as markdown tables.
// The rows come from internal/eval; EXPERIMENTS.md is produced from this
// command's output.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run fig7  # run one experiment
//	experiments -quick     # smaller datasets (CI-sized)
//	experiments -list      # list experiment names
//
// Absolute numbers are machine- and scale-dependent; the experiments exist
// to reproduce the paper's *shapes*: who wins, by what rough factor, and
// how the breakdowns look.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

type experiment struct {
	name  string
	title string
	fn    func(w io.Writer, quick bool) error
}

var experiments = []experiment{
	{"datasets", "Dataset inventory (the §5 dataset table, synthetic stand-ins)", printDatasets},
	{"fig4", "Fig. 4 — weak scaling on R-MAT with the RMAT-1 pattern", printFig4},
	{"fig6", "Fig. 6 — strong scaling on the WDC-like graph (WDC-1/2/3)", printFig6},
	{"fig7", "Fig. 7 — naïve approach vs HGT across patterns and graphs", printFig7},
	{"fig8", "Fig. 8 — WDC-3 per-level runtime under scenarios naïve/X/Y/Z", printFig8},
	{"fig9a", "Fig. 9(a) — load balancing (NLB vs LB)", printFig9a},
	{"fig9b", "Fig. 9(b) — constraint/prototype ordering and enumeration optimization", printFig9b},
	{"deployments", "§5.4 table — parallel vs sequential prototype search by deployment size", printDeployments},
	{"rdt1", "§5.5 — Reddit adversarial poster–commenter query (RDT-1)", printRDT1},
	{"imdb1", "§5.5 — IMDb same-role-in-two-movies query (IMDB-1)", printIMDB1},
	{"wdc4", "§5.5 — exploratory search from a 6-Clique (WDC-4)", printWDC4},
	{"arabesque", "§5.6 table — TLE (Arabesque-style) baseline vs HGT motif counting", printArabesque},
	{"messages", "§5.7 table — message analysis, naïve vs HGT (WDC-2)", printMessages},
	{"fig11", "Fig. 11 — memory accounting: topology vs algorithm state; naïve vs HGT", printFig11},
	{"fig12", "Fig. 12 — locality: fixed ranks, varying ranks-per-node", printFig12},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command line and returns the exit status: 2 for a bad
// flag or an unknown -run name, 1 if an experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only  = fs.String("run", "", "run only the experiment with this name")
		quick = fs.Bool("quick", false, "smaller datasets")
		list  = fs.Bool("list", false, "list experiment names")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *only != "" && !known(*only) {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q; the experiments are:\n", *only)
		printList(stderr)
		return 2
	}
	total := time.Now()
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		fmt.Fprintf(stdout, "\n## %s\n\n", e.title)
		start := time.Now()
		if err := e.fn(stdout, *quick); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "\n_(experiment %s: %v)_\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(stderr, "total: %v\n", time.Since(total).Round(time.Millisecond))
	return 0
}

func known(name string) bool {
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}

func printList(w io.Writer) {
	for _, e := range experiments {
		fmt.Fprintf(w, "%-12s %s\n", e.name, e.title)
	}
}

// table prints a markdown table.
func table(w io.Writer, header []string, rows [][]string) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(header, " | "))
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, r := range rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
}

// cells formats a table row: strings as they are, integers in decimal.
// Floats and durations come preformatted, each with its own precision.
func cells(vals ...any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.0f ms", float64(d.Microseconds())/1000) }

// speedup formats a ratio.
func speedup(base, opt time.Duration) string {
	if opt <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(opt))
}

// ratio divides two counters, treating a zero divisor as one.
func ratio(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
