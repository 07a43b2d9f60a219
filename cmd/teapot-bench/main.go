// Teapot-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	teapot-bench            # everything
//	teapot-bench -table 1   # Table 1 only
//	teapot-bench -table 3
//	teapot-bench -figures   # Figures 1/2/4 as DOT
//	teapot-bench -loc       # §6 code-size comparison
//	teapot-bench -bug       # the §7 bug-hunt reproduction
package main

import (
	"flag"
	"fmt"
	"os"

	"teapot/internal/bench"
	"teapot/internal/cliflags"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate one table (1, 2, or 3); 0 = all")
		figures = flag.Bool("figures", false, "emit Figures 1/2/4 as DOT")
		loc     = flag.Bool("loc", false, "emit the code-size comparison")
		bug     = flag.Bool("bug", false, "run the seeded-bug hunt (§7)")
		nodes   = flag.Int("nodes", 32, "machine size for Tables 1-2")
		iters   = flag.Int("iters", 4, "workload iterations for Tables 1-2")
		workers = flag.Int("workers", 0, "model-checker workers for Table 3 (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *table < 0 || *table > 3 {
		fmt.Fprintln(os.Stderr, cliflags.BadFlag("teapot-bench", "table", fmt.Sprint(*table), "1, 2, or 3 (0 = all)"))
		os.Exit(1)
	}

	specific := *figures || *loc || *bug || *table != 0

	if *table == 1 || !specific {
		rows, err := bench.Table1(*nodes, *iters)
		check(err)
		fmt.Print(bench.FormatPerf(fmt.Sprintf("Table 1: Stache performance (%d nodes)", *nodes), rows))
		fmt.Println()
	}
	if *table == 2 || !specific {
		rows, err := bench.Table2(*nodes, *iters)
		check(err)
		fmt.Print(bench.FormatPerf(fmt.Sprintf("Table 2: LCM performance (%d nodes)", *nodes), rows))
		fmt.Println()
	}
	if *table == 3 || !specific {
		rows, err := bench.Table3(*workers)
		check(err)
		fmt.Print(bench.FormatVerify(rows))
		fmt.Println()
		faultRows, err := bench.FaultSweep(*workers)
		check(err)
		fmt.Print(bench.FormatFaults(faultRows))
		fmt.Println()
	}
	if *figures || !specific {
		for _, f := range bench.Figures() {
			fmt.Printf("%s: %d states, %d edges\n", f.Figure, f.States, f.Edges)
			if *figures {
				fmt.Println(f.DOT)
			}
		}
		fmt.Println()
	}
	if *loc || !specific {
		fmt.Println("Code size (§6; the paper: Stache 600 Teapot -> ~1000 C, LCM 1500 -> ~2300 C)")
		for _, r := range bench.LinesOfCode(0, 0) {
			fmt.Printf("  %-14s %5d Teapot lines -> %5d generated Go lines\n",
				r.Protocol, r.Teapot, r.Generated)
		}
		fmt.Println()
	}
	if *table == 0 && !specific || *loc {
		rows, err := bench.ProducerConsumer(*nodes, *iters)
		check(err)
		fmt.Println("Producer-consumer (§1 motivation): invalidation vs write-update")
		for _, r := range rows {
			fmt.Printf("  %-22s cycles=%-9d faults=%-6d messages=%d\n",
				r.Protocol, r.Cycles, r.Faults, r.Messages)
		}
		fmt.Println()
	}
	if *bug || !specific {
		res, err := bench.BugHunt()
		check(err)
		fmt.Println("Bug hunt (§7): seeded upgrade/invalidate race in Stache")
		if res.Violation == nil {
			fmt.Println("  unexpectedly verified clean")
			os.Exit(2)
		}
		fmt.Printf("  found after %d states:\n%s", res.States, res.Violation)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "teapot-bench:", err)
		os.Exit(1)
	}
}
