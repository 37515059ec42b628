// Command tara is the interactive temporal association explorer: it loads or
// generates an evolving transaction database, builds the TARA knowledge base
// (TAR Archive + EPS index), and answers exploration queries — interactively
// from stdin, or one-shot via -q.
//
// Usage:
//
//	tara -gen retail -tx 20000 -batches 10 -supp 0.005 -conf 0.1
//	tara -load transactions.tsv -batches 5 -q "mine w=0 supp=0.01 conf=0.2"
//	tara serve -kb retail.kb -addr 127.0.0.1:8775   (runs the tarad daemon)
//
// Query syntax (the rows of query.Classes in package tara/internal/query,
// which "tara> help" prints):
//
//	mine      w=0 supp=0.01 conf=0.2 [lift=1.5]
//	count     w=0 supp=0.01 conf=0.2
//	traj      w=3 supp=0.01 conf=0.2 in=0,1,2
//	compare   w=0,1,2,3 a=0.01,0.2 b=0.05,0.3
//	recommend w=0 supp=0.01 conf=0.2 [lift=1.5]
//	rollup    from=0 to=3 supp=0.01 conf=0.2
//	drill     rule=12 from=0 to=3
//	about     w=0 supp=0.01 conf=0.2 items=milk,bread
//	rank      from=0 to=3 supp=0.01 conf=0.2 [by=stability|coverage|volatility] [k=10]
//	periodic  from=0 to=8 supp=0.01 conf=0.2 period=7 [k=10]
//	plot      w=0 [supp=0.01 conf=0.2]
//	export    w=0 supp=0.01 conf=0.2 file=rules.csv [format=csv|json]
//	topk      from=0 to=3 supp=0.01 conf=0.2 [by=stability|drift|volatility|coverage] [k=10]
//	similar   from=0 to=3 ref=0.1,0.2,0.15,0.2 [metric=euclid|max] [supp=0 conf=0] [k=10]
//	emerging  from=0 supp=0.01 conf=0.2 [to=5]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"tara/internal/query"
	"tara/internal/server"
	"tara/internal/tara"
)

func main() {
	// "tara serve ..." runs the query-serving daemon (same as cmd/tarad).
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := server.Run(os.Args[2:], os.Stderr); err != nil {
			fatal(err)
		}
		return
	}
	var (
		openKB   = server.KBFlags(flag.CommandLine)
		oneshot  = flag.String("q", "", "run a single query and exit")
		saveFile = flag.String("save", "", "save the knowledge base to this file after building")
		saveFmt  = flag.String("saveformat", "mapped", "on-disk format for -save: mapped (the TARAKB2 container, the only format)")
	)
	flag.Parse()
	if *saveFmt != "mapped" {
		fatal(fmt.Errorf("unknown -saveformat %q (want mapped)", *saveFmt))
	}

	start := time.Now()
	fw, err := openKB(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		fatal(err)
	}
	defer fw.Close()
	if rep := fw.BuildReport(); rep.Total > 0 {
		fmt.Fprintln(os.Stderr, rep)
	}
	fmt.Fprintf(os.Stderr, "ready (%s): %d windows, %d rules, archive %d bytes (in %v)\n",
		fw.LoadMode(), fw.Windows(), fw.RuleDict().Len(), fw.Archive().SizeBytes(), time.Since(start).Round(time.Millisecond))
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fatal(err)
		}
		if err := fw.SaveMapped(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved knowledge base to %s\n", *saveFile)
	}

	if *oneshot != "" {
		if err := runQuery(fw, *oneshot); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Fprintln(os.Stderr, `enter queries ("help" for syntax, "stats" for a summary, "quit" to exit):`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Fprint(os.Stderr, "tara> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
			continue
		case "quit", "exit":
			return
		case "help":
			printHelp()
			continue
		case "stats":
			printStats(fw)
			continue
		}
		if err := runQuery(fw, line); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

func runQuery(fw *tara.Framework, line string) error {
	q, err := query.Parse(line)
	if err != nil {
		return err
	}
	return query.Execute(os.Stdout, fw, q)
}

func printStats(fw *tara.Framework) {
	s := fw.Summarize()
	fmt.Printf("knowledge base: %d windows, %d rules, %d items\n", s.Windows, s.Rules, s.Items)
	fmt.Printf("archive: %d entries, %d bytes (%.1fx compression)\n",
		s.ArchiveEntries, s.ArchiveBytes, float64(s.UncompressedByte)/float64(s.ArchiveBytes))
	for _, w := range s.PerWindow {
		fmt.Printf("  window %-3d %v  n=%-7d rules=%-7d locations=%d\n",
			w.Window, w.Period, w.N, w.Rules, w.Locations)
	}
	if ts := fw.Timings(); len(ts) > 0 {
		fmt.Println("build telemetry (per window):")
		for _, t := range ts {
			fmt.Printf("  window %-3d mine=%-10v rulegen=%-10v archive=%-10v index=%-10v commit=%-10v wait=%-10v grid=%dx%d archiveB=%d frequent=[%s]",
				t.Window,
				t.Mine.Round(time.Microsecond), t.RuleGen.Round(time.Microsecond),
				t.ArchiveTime.Round(time.Microsecond), t.IndexTime.Round(time.Microsecond),
				t.Commit.Round(time.Microsecond), t.QueueWait.Round(time.Microsecond),
				t.SuppCuts, t.ConfCuts, t.ArchiveBytes, tara.PerLevelString(t.LevelFrequent))
			if t.LevelCandidates != nil {
				fmt.Printf(" candidates=[%s]", tara.PerLevelString(t.LevelCandidates))
			}
			fmt.Println()
		}
	}
	if ctr := fw.BuildCounters(); ctr["build_windows"] > 0 {
		fmt.Printf("build counters: windows=%d rules=%d mine=%vms rulegen=%vms eps=%vms archive=%vms commit=%vms queue-wait=%vms\n",
			ctr["build_windows"], ctr["build_rules"],
			ctr["build_mine_ns"]/1e6, ctr["build_rulegen_ns"]/1e6,
			ctr["build_eps_ns"]/1e6, ctr["build_archive_ns"]/1e6,
			ctr["build_commit_ns"]/1e6, ctr["build_queue_wait_ns"]/1e6)
	}
}

// printHelp lists every query class from the query package's class table.
func printHelp() {
	fmt.Fprintln(os.Stderr, "queries:")
	for _, c := range query.Classes {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.Name, c.Usage)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tara:", err)
	os.Exit(1)
}
