// Protocols regenerates the paper's complete evaluation through the
// public API — every figure's message and data series for all five
// workloads, the SC baseline, and the three §4 design-choice ablations —
// and then runs the same protocol matrix *live*: each workload executes
// on the DSM runtime under every engine (LI/LU/EI/EU/SC), both one
// processor per node and oversubscribed (several application goroutines
// multiplexed per node), with the final memory image verified against
// the sequential reference. This is the library-driven equivalent of
// cmd/lrcsim plus cmd/lrcrun, written entirely against the repro façade.
//
// Run with: go run ./examples/protocols
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
)

func main() {
	fmt.Println("Reproduction of Keleher/Cox/Zwaenepoel (ISCA 1992), Figures 5-14")
	fmt.Println()
	for _, app := range repro.Workloads {
		tr, err := repro.GenerateTrace(app, repro.PaperProcs, 0.25, 42)
		if err != nil {
			log.Fatal(err)
		}
		results, err := repro.Sweep(tr, repro.AllProtocols, repro.PaperPageSizes, repro.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s (%d events) ==\n", app, len(tr.Events))
		for _, metric := range []string{"messages", "data"} {
			fmt.Printf("%-10s", metric)
			for _, p := range repro.AllProtocols {
				fmt.Printf("%12s", p)
			}
			fmt.Println()
			for _, ps := range repro.PaperPageSizes {
				fmt.Printf("%-10d", ps)
				for _, p := range repro.AllProtocols {
					s, err := repro.Series(results, p, []int{ps}, metric)
					if err != nil {
						log.Fatal(err)
					}
					v := s[0]
					if metric == "data" {
						v /= 1024
					}
					fmt.Printf("%12d", v)
				}
				fmt.Println()
			}
		}
		fmt.Println()
	}

	// Ablations of the paper's §4 design choices, on the lock-heavy
	// LocusRoute at 2 KB pages.
	tr, err := repro.GenerateTrace("locusroute", repro.PaperProcs, 0.25, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== design-choice ablations (LI, locusroute, 2048-byte pages) ==")
	base, err := repro.Simulate(tr, "LI", 2048, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %10d msgs %10d KB\n", "as published", base.TotalMessages(), base.TotalBytes()/1024)
	for _, abl := range []struct {
		name string
		opts repro.Options
	}{
		{"no notice piggybacking", repro.Options{NoPiggyback: true}},
		{"no diffs (whole pages)", repro.Options{NoDiffs: true}},
		{"exclusive writer (no MW)", repro.Options{ExclusiveWriter: true}},
	} {
		st, err := repro.Simulate(tr, "LI", 2048, abl.opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %10d msgs %10d KB\n", abl.name, st.TotalMessages(), st.TotalBytes()/1024)
	}

	// --- the same matrix, live ---
	//
	// Every protocol engine moves real bytes on the runtime; the final
	// image must match the lockstep sequential reference.
	const procs, scale, seed, pageSize = 8, 0.05, 42, 1024
	fmt.Println()
	fmt.Println("== live runtime: all five engines ==")
	fmt.Printf("%-12s %-6s %14s\n", "workload", "mode", "msgs")
	for _, app := range repro.Workloads {
		ref, err := repro.ExecuteWorkload(app, procs, scale, seed)
		if err != nil {
			log.Fatal(err)
		}
		for _, mode := range repro.DSMModes {
			res, err := repro.RunWorkloadOnRuntime(app, procs, scale, seed, repro.RuntimeConfig{
				PageSize: pageSize,
				Mode:     mode,
			})
			if err != nil {
				log.Fatal(err)
			}
			if !bytes.Equal(res.Image, ref.Image) {
				log.Fatalf("%s/%s: runtime image diverges from the sequential reference", app, mode)
			}
			fmt.Printf("%-12s %-6s %14d\n", app, mode, res.Net.Messages)
		}
	}
}
