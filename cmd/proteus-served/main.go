// Command proteus-served runs the simulation job server: an HTTP JSON
// service that accepts single simulations, figure suites and crash
// campaigns, executes them on the shared simulation engine, and answers
// repeated tuples from the persistent on-disk result store.
//
// The server is production-shaped: a bounded admission queue rejects
// overload with 429 + Retry-After, identical in-flight submissions are
// collapsed into one task, per-request deadlines and client disconnects
// cancel the underlying engine contexts, and SIGTERM/SIGINT triggers a
// graceful drain (stop accepting, finish queued work, then exit 0).
//
// Example:
//
//	proteus-served -addr :8080 -store proteus-store -queue 64
//	curl -XPOST localhost:8080/v1/jobs -d '{"type":"sim","bench":"QE","scheme":"Proteus"}'
//	curl localhost:8080/v1/jobs/job-1
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		storeDir     = flag.String("store", "proteus-store", "persistent result store directory (empty disables)")
		queueDepth   = flag.Int("queue", 64, "admission queue depth (full queue => 429)")
		workers      = flag.Int("workers", 2, "concurrently executing jobs")
		jobs         = flag.Int("jobs", 0, "engine simulation workers per job (0 = GOMAXPROCS)")
		jobTimeout   = flag.Duration("timeout", 30*time.Minute, "default wall-clock limit per job (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGTERM drain waits before cancelling running jobs")

		clusterOn   = flag.Bool("cluster", false, "act as cluster coordinator: scatter sim/campaign jobs to pull-based proteus-worker processes (mounts /v1/cluster/)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "cluster lease TTL: a worker silent this long loses its items to requeue")
		retryBudget = flag.Int("retry-budget", 4, "cluster lease grants per item before quarantine")
		leaseBatch  = flag.Int("lease-batch", 8, "cluster max items per lease call")

		ledgerOn  = flag.Bool("ledger", true, "maintain the tamper-evident provenance ledger next to the store (requires -store)")
		batchMax  = flag.Int("ledger-batch", 64, "ledger batching: seal a batch at this many leaves")
		batchWait = flag.Duration("ledger-wait", 25*time.Millisecond, "ledger batching: seal a batch when its oldest leaf has waited this long")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	econf := engine.Config{Workers: *jobs}
	var store *resultstore.Store
	var lg *ledger.Ledger
	var batcher *ledger.Batcher
	if *storeDir != "" {
		var err error
		store, err = resultstore.Open(*storeDir)
		exitOn(err)
		econf.Store = store
		logger.Info("result store open", "dir", *storeDir)
		if *ledgerOn {
			lg, err = ledger.Open(ledger.DefaultPath(*storeDir), nil)
			exitOn(err)
			batcher = ledger.NewBatcher(lg, *batchMax, *batchWait)
			// Every engine store-write flows through the recording hook,
			// so the ledger seals a leaf for each new result; Scrub
			// cross-checks healthy entries against the sealed digests.
			econf.Store = ledger.NewRecordingStore(store, batcher)
			store.SetVerifier(ledger.DigestVerifier(lg))
			head := lg.Head()
			logger.Info("provenance ledger open", "path", ledger.DefaultPath(*storeDir),
				"records", head.Records, "leaves", head.Leaves, "head", head.Head)
		}
	}
	eng := engine.New(econf)

	var coord *cluster.Coordinator
	var janitorStop chan struct{}
	if *clusterOn {
		cconf := cluster.Config{
			LeaseTTL:    *leaseTTL,
			RetryBudget: *retryBudget,
			MaxBatch:    *leaseBatch,
			Logger:      logger,
		}
		if store != nil {
			// Workers report results over the protocol; the coordinator
			// publishes sims into the shared store so later submissions
			// are answered without touching the cluster. With the ledger
			// on, the publish flows through the recording hook and every
			// completion's provenance stamp is verified before acceptance.
			cconf.Publish = cluster.PublishToStore(econf.Store, logger)
			if batcher != nil {
				cconf.VerifyCompletion = cluster.VerifyCompletion
			}
		}
		coord = cluster.NewCoordinator(cconf)
		janitorStop = make(chan struct{})
		go coord.Janitor(janitorStop)
		logger.Info("cluster coordinator enabled", "lease_ttl", leaseTTL.String(), "retry_budget", *retryBudget)
	}

	srv, err := serve.New(serve.Config{
		Engine:         eng,
		Store:          store,
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		DefaultTimeout: *jobTimeout,
		Cluster:        coord,
		Ledger:         lg,
		Admissions:     batcher,
		Logger:         logger,
	})
	exitOn(err)
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		exitOn(err)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: refuse new submissions, finish (or, past the
	// deadline, cancel) queued and running work, then stop the listener.
	logger.Info("signal received, draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain deadline forced cancellation", "err", err.Error())
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if janitorStop != nil {
		close(janitorStop)
	}
	if batcher != nil {
		// Seal whatever the drain left pending so the on-disk ledger
		// covers every store write this process made.
		batcher.Close()
	}
	logger.Info("drained, exiting")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-served:", err)
		os.Exit(1)
	}
}
