// Command proteus-worker is a pull-based cluster worker: it registers
// with a coordinator (proteus-served -cluster), leases batches of sim
// and campaign-tuple items, executes them on a local simulation engine,
// and reports the results. Workers hold no cluster state, so any number
// can join or die at any time; SIGTERM/SIGINT stops the worker cleanly
// and the coordinator requeues whatever it still held.
//
// Example:
//
//	proteus-served -addr :8080 -cluster -store shared-store &
//	proteus-worker -coordinator http://localhost:8080 -name w1 -store shared-store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/resultstore"
)

func main() {
	host, _ := os.Hostname()
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL, e.g. http://localhost:8080 (required)")
		name        = flag.String("name", fmt.Sprintf("%s-%d", host, os.Getpid()), "worker name; unique within the cluster")
		batch       = flag.Int("batch", 2, "items to lease per pull")
		storeDir    = flag.String("store", "", "result store directory answering repeated sims (empty disables)")
		jobs        = flag.Int("jobs", 0, "engine simulation workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "proteus-worker: -coordinator is required")
		os.Exit(2)
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil)).With("worker", *name)
	econf := engine.Config{Workers: *jobs}
	if *storeDir != "" {
		store, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "proteus-worker:", err)
			os.Exit(1)
		}
		econf.Store = store
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &cluster.Worker{
		Name:        *name,
		Coordinator: *coordinator,
		Engine:      engine.New(econf),
		Batch:       *batch,
		Logger:      logger,
	}
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "proteus-worker:", err)
		os.Exit(1)
	}
	logger.Info("signal received, exiting")
}
