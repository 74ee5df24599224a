// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig11,fig12          # specific experiments
//	experiments -run all -scale quick     # everything, reduced scale
//	experiments -run fig13 -seeds 3 -out results/
//	experiments -run all -store results/store   # cache every cell's result
//
// Each experiment prints an aligned text table mirroring the corresponding
// paper artifact; -out additionally writes one file per experiment. With
// -store, every cell-based experiment — the figure sweeps (Figs. 11–14)
// with their ORACLE column, Tables VI–IX, the ablations and the oracle
// experiment's method runs — caches its cells in a content-addressed
// result store keyed by cell fingerprint (experiment.Store), so a
// repeated run executes no simulation and no oracle solve of them, and
// the last line counts the cells served and executed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		run     = flag.String("run", "", "comma-separated experiment IDs, or 'all'")
		scale   = flag.String("scale", "full", "trace scale: full, quick or tiny")
		seeds   = flag.Int("seeds", 1, "independent seeds per data point")
		workers = flag.Int("workers", 0, "parallel simulations (0 = all cores)")
		out     = flag.String("out", "", "directory to write per-experiment result files")
		store   = flag.String("store", "", "content-addressed result store for every cell-based experiment's cells (empty = no cache)")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiment.All() {
			fmt.Printf("  %-20s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun with -run <id>[,<id>...] or -run all")
		}
		return
	}

	sc, err := experiment.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := experiment.Options{Scale: sc, Seeds: *seeds, Workers: *workers}
	if *store != "" {
		if opt.Store, err = experiment.OpenStore(*store); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	var ids []string
	if *run == "all" {
		for _, e := range experiment.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		e, err := experiment.Get(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t0 := time.Now()
		rep := e.Run(opt)
		text := rep.String()
		fmt.Println(text)
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		if *out != "" {
			path := filepath.Join(*out, e.ID+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if opt.Store != nil {
		hits, puts := opt.Store.Counts()
		fmt.Printf("store %s: %d cells served, %d executed\n", opt.Store.Root(), hits, puts)
	}
}
