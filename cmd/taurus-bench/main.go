// taurus-bench replays the paper's evaluation (§VII) from counted work
// and prints the tables behind each figure. No wall-clock time enters
// them: measured performance comes from `bash benchmark/run.sh` (see
// benchmark/README.md).
//
// Usage:
//
//	taurus-bench [-sf 0.005] [fig5|fig6|fig7|fig8|fig9|q4-bufferpool|all]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"taurus/internal/bench"
)

// experiments lists the figures in the order `all` prints them.
var experiments = []struct {
	name string
	run  func(*bench.Fixture, io.Writer) error
}{
	{"fig5", table((*bench.Fixture).Fig5, bench.PrintFig5)},
	{"fig6", table((*bench.Fixture).Fig6, bench.PrintFig6)},
	{"fig7", table((*bench.Fixture).Fig7, bench.PrintFig7)},
	{"fig8", table((*bench.Fixture).Fig8, bench.PrintFig8)},
	{"fig9", table((*bench.Fixture).Fig9, bench.PrintFig9)},
	{"q4-bufferpool", func(f *bench.Fixture, w io.Writer) error {
		noNDP, withNDP, err := f.Q4BufferPool()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "§VII-D buffer-pool experiment (lineitem pages resident after Q1–Q3):")
		fmt.Fprintf(w, "  NDP disabled: %d pages\n  NDP enabled:  %d pages\n", noNDP, withNDP)
		fmt.Fprintln(w, "  (paper: 1,272,972 vs 24,186)")
		return nil
	}},
}

// retired names were timing subcommands of this tool; the repo benchmark
// measures what they did.
var retired = []string{"writepath", "replicas", "analytics", "durability", "checkpoint"}

func table[T any](compute func(*bench.Fixture) (T, error), print func(io.Writer, T)) func(*bench.Fixture, io.Writer) error {
	return func(f *bench.Fixture, w io.Writer) error {
		v, err := compute(f)
		if err != nil {
			return err
		}
		print(w, v)
		return nil
	}
}

// checkName reports why taurus-bench cannot run the named experiment.
func checkName(which string) error {
	if which == "all" {
		return nil
	}
	for _, e := range experiments {
		if e.name == which {
			return nil
		}
	}
	if slices.Contains(retired, which) {
		return fmt.Errorf("taurus-bench: unknown experiment %q\n  (retired: use `bash benchmark/run.sh --workload <ndp_scan|raw_scan|oltp_mixed|htap_replica>`, see benchmark/README.md)", which)
	}
	return fmt.Errorf("taurus-bench: unknown experiment %q", which)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taurus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := fs.Float64("sf", 0.005, "TPC-H scale factor")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: taurus-bench [-sf 0.005] [fig5|fig6|fig7|fig8|fig9|q4-bufferpool|all]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	which := "all"
	if fs.NArg() > 0 {
		which = fs.Arg(0)
	}
	if err := checkName(which); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}
	fmt.Fprintf(stdout, "Loading TPC-H at SF %g on a 4-Page-Store, 3-way-replicated cluster...\n", *sf)
	f, err := bench.NewFixture(*sf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, e := range experiments {
		if which != "all" && which != e.name {
			continue
		}
		fmt.Fprintln(stdout)
		if err := e.run(f, stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
