package server

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tara/internal/gen"
	"tara/internal/mining"
	"tara/internal/tara"
	"tara/internal/txdb"
)

// Run is the tarad entry point: parse flags, load (or build) the knowledge
// base, and serve until SIGINT/SIGTERM, draining in-flight requests before
// returning. stderr receives the structured log.
func Run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("tarad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		openKB   = KBFlags(fs)
		addr     = fs.String("addr", "127.0.0.1:8775", "listen address")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		inflight = fs.Int("maxinflight", 256, "max concurrently executing queries: the upper bound of the AIMD latency-feedback admission limit (at least 2, one slot per QoS class)")
		minLimit = fs.Int("minlimit", 2, "admission's lowest (and cold-start) in-flight limit (at least 2; equal to -maxinflight for a fixed cap)")
		qwait    = fs.Duration("queuewait", 0, "max time a request may queue for an in-flight slot before 429 (0 = shed immediately)")
		pprofOn  = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		slowN    = fs.Int("slowtraces", 32, "slowest request traces retained for /debug/slow")
		cacheB   = fs.Int64("cachebytes", 0, "encoded-response byte cache budget in bytes (0 = default 16 MiB, -1 = disabled)")
		gzipOn   = fs.Bool("gzip", true, "store and serve gzip-precompressed variants of cached responses of at least 1 KiB")
		drain    = fs.Duration("drain", 15*time.Second, "max time to drain in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := slog.New(slog.NewTextHandler(stderr, nil))

	start := time.Now()
	fw, err := openKB(log)
	if err != nil {
		return err
	}
	defer fw.Close()
	kbLoadMillis := time.Since(start).Milliseconds()
	log.Info("knowledge base ready",
		"windows", fw.Windows(),
		"rules", fw.RuleDict().Len(),
		"archiveBytes", fw.Archive().SizeBytes(),
		"loadMode", fw.LoadMode(),
		"loadMillis", kbLoadMillis,
		"elapsed", time.Since(start).Round(time.Millisecond),
	)
	// Loaded knowledge bases carry no per-window timings; only a fresh build
	// has phase telemetry worth logging.
	if rep := fw.BuildReport(); rep.Total > 0 {
		log.Info("build telemetry",
			"mine", rep.Mine.Round(time.Millisecond),
			"rulegen", rep.RuleGen.Round(time.Millisecond),
			"archive", rep.Archive.Round(time.Millisecond),
			"index", rep.Index.Round(time.Millisecond),
			"commit", rep.Commit.Round(time.Millisecond),
			"queueWait", rep.QueueWait.Round(time.Millisecond),
			"parallelism", rep.Parallelism,
			"itemsets", rep.Itemsets,
			"epsLocations", rep.Locations,
			"compression", fmt.Sprintf("%.2fx", rep.Storage.CompressionRatio),
		)
	}

	gzMin := 0 // the 1 KiB default
	if !*gzipOn {
		gzMin = -1
	}
	s, err := New(Config{
		Framework:      fw,
		Logger:         log,
		RequestTimeout: *timeout,
		MaxInFlight:    *inflight,
		MinLimit:       *minLimit,
		QueueWait:      *qwait,
		EnablePprof:    *pprofOn,
		SlowTraces:     *slowN,
		ByteCacheBytes: *cacheB,
		GzipMinBytes:   gzMin,
		KBLoadMode:     fw.LoadMode(),
		KBLoadMillis:   kbLoadMillis,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, *drain)
}

// Serve answers requests on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up to
// drainTimeout to finish. The listener is always closed when Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          slog.NewLogLogger(s.log.Handler(), slog.LevelWarn),
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.log.Info("listening", "addr", ln.Addr().String())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.log.Info("shutting down, draining in-flight requests", "timeout", drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("server: drain incomplete: %w", err)
		}
		<-errc // srv.Serve has returned http.ErrServerClosed
		s.log.Info("drained, goodbye")
		return nil
	}
}

// KBFlags registers on fs the flags that say where the knowledge base comes
// from — a saved file (-kb, mapped with -mmap) or transactions to build one
// from (-load, -fimi or -gen, plus the build parameters) — and returns the
// function that opens or builds it once fs is parsed. tarad and the tara CLI
// both start through it.
func KBFlags(fs *flag.FlagSet) func(log *slog.Logger) (*tara.Framework, error) {
	var (
		kbFile   = fs.String("kb", "", "load a previously saved knowledge base instead of building")
		mmapOn   = fs.Bool("mmap", false, "memory-map the -kb file instead of reading it into the heap")
		load     = fs.String("load", "", "build from transactions in a TSV file (timestamp<TAB>item item ...)")
		fimi     = fs.String("fimi", "", "build from transactions in a FIMI-format file (e.g. the real retail.dat)")
		maxTx    = fs.Int("maxtx", 0, "cap transactions read from -fimi (0 = all)")
		generate = fs.String("gen", "retail", "generate a dataset: retail, quest or webdocs (ignored with -load)")
		tx       = fs.Int("tx", 20000, "transactions to generate")
		items    = fs.Int("items", 2000, "item vocabulary size for generation")
		avgLen   = fs.Int("avglen", 10, "average transaction length for generation")
		seed     = fs.Int64("seed", 1, "generator seed")
		batches  = fs.Int("batches", 10, "number of equal-sized windows")
		winSize  = fs.Int64("window", 0, "time-based window size (overrides -batches when > 0)")
		genSupp  = fs.Float64("supp", 0.005, "generation minimum support (Table 4)")
		genConf  = fs.Float64("conf", 0.1, "generation minimum confidence (Table 4)")
		maxLen   = fs.Int("maxlen", 4, "maximum itemset length")
		miner    = fs.String("miner", "eclat", "mining algorithm: apriori, eclat, fpgrowth, hmine")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "workers per build pipeline pool (below 1 = one worker; output is byte-identical at any value)")
	)
	return func(log *slog.Logger) (*tara.Framework, error) {
		if *kbFile != "" {
			if *mmapOn {
				log.Info("mapping knowledge base", "file", *kbFile)
				return tara.Open(*kbFile)
			}
			log.Info("loading knowledge base", "file", *kbFile)
			b, err := os.ReadFile(*kbFile)
			if err != nil {
				return nil, err
			}
			return tara.OpenBytes(b)
		}
		db, err := loadOrGenerate(*load, *fimi, *maxTx, *generate, *tx, *items, *avgLen, *seed)
		if err != nil {
			return nil, err
		}
		m, err := mining.ByName(*miner)
		if err != nil {
			return nil, err
		}
		log.Info("building knowledge base", "transactions", db.Len(), "miner", *miner, "parallelism", *parallel)
		return tara.Build(db, *winSize, *batches, tara.Config{
			GenMinSupport: *genSupp,
			GenMinConf:    *genConf,
			MaxItemsetLen: *maxLen,
			Miner:         m,
			ContentIndex:  true,
			Parallelism:   *parallel,
		})
	}
}

func loadOrGenerate(load, fimi string, maxTx int, generator string, tx, items, avgLen int, seed int64) (*txdb.DB, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return txdb.Read(f)
	}
	if fimi != "" {
		f, err := os.Open(fimi)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return txdb.ReadFIMI(f, maxTx)
	}
	switch generator {
	case "retail":
		return gen.Retail(gen.RetailParams{Transactions: tx, NumItems: items, AvgLen: avgLen, Seed: seed})
	case "quest":
		return gen.Quest(gen.QuestParams{Transactions: tx, AvgTransLen: avgLen, NumItems: items, Seed: seed})
	case "webdocs":
		return gen.Webdocs(gen.WebdocsParams{Transactions: tx, NumItems: items, AvgLen: avgLen, Seed: seed})
	}
	return nil, fmt.Errorf("unknown generator %q (want retail, quest or webdocs)", generator)
}
