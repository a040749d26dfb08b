// Command proteus-chaos is the end-to-end fault-tolerance soak for the
// serve/cluster/resultstore stack. Each iteration it runs the same small
// crash campaign twice — once fault-free on a local engine, once on a
// real in-process cluster (serve HTTP front, coordinator, pull workers)
// with deterministic, seed-driven faults injected at every layer — and
// requires the two reports to be byte-identical.
//
// Fault surfaces (selected with -faults):
//
//	fs    torn writes, bit flips, ENOSPC, fsync failures and
//	      crash-before-rename inside every result store
//	http  dropped, delayed, duplicated and 5xx'd worker↔coordinator
//	      protocol calls
//	kill  a worker killed mid-batch each iteration (its leases must
//	      expire and requeue) plus injected worker stalls longer than
//	      the lease TTL (their late completions must drop as stale)
//
// Each iteration scrubs the coordinator store over HTTP, which
// cross-checks every healthy entry against the provenance ledger. The
// soak ends by scrubbing every store: corrupt entries are quarantined,
// and a second scrub must come back clean. Any report mismatch,
// quarantined cluster item, entry diverging from the ledger, or
// residual corruption exits 1.
//
// Example:
//
//	proteus-chaos -seed 42 -duration 60s -workers 3 -faults fs,http,kill
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "chaos seed; fixes the fault mix and all jitter")
		duration = flag.Duration("duration", 20*time.Second, "keep starting iterations until this much time has passed")
		workers  = flag.Int("workers", 3, "cluster workers per iteration (plus the kill victim)")
		faults   = flag.String("faults", "fs,http,kill", "comma-separated fault surfaces: fs, http, kill (empty = none)")
		storeDir = flag.String("store", "", "root directory for the result stores (default: a temp dir)")
		out      = flag.String("out", "", "write the JSON soak report here (default: stdout)")
		verbose  = flag.Bool("v", false, "log worker and coordinator activity")
	)
	flag.Parse()
	if err := run(*seed, *duration, *workers, *faults, *storeDir, *out, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "proteus-chaos:", err)
		os.Exit(1)
	}
}

// soakReport is the machine-readable outcome of one soak.
type soakReport struct {
	Seed       int64             `json:"seed"`
	Workers    int               `json:"workers"`
	Iterations int               `json:"iterations"`
	Mismatches int               `json:"mismatches"`
	Faults     map[string]uint64 `json:"faults"`

	// Cluster recovery activity summed over all iterations.
	LeaseExpired   uint64 `json:"lease_expired"`
	Requeued       uint64 `json:"requeued"`
	StaleReports   uint64 `json:"stale_reports"`
	WorkersEvicted uint64 `json:"workers_evicted"`
	ItemsLost      uint64 `json:"items_quarantined"` // must be 0

	// Store repair at the end of the soak.
	ScrubScanned     int `json:"scrub_scanned"`
	ScrubCorrupt     int `json:"scrub_corrupt"`
	StoreQuarantined int `json:"store_quarantined"` // corpses parked on disk

	// Provenance ledger under chaos. ScrubDiverged counts coordinator
	// store entries that the per-iteration scrub found consistent with
	// their own digest but not with the ledger's sealed digest: the one
	// way a lying disk could make the ledger vouch for bytes it never
	// committed (must be 0).
	ScrubDiverged int `json:"scrub_diverged"`
	LedgerRecords int `json:"ledger_records"`
	LedgerLeaves  int `json:"ledger_leaves"`
	// Final offline audit of the coordinator store against its ledger
	// (run on the real filesystem, after scrubbing): divergent and
	// unledgered must both be 0. Missing entries are quarantined
	// corpses — the ledger remembers results the store will have to
	// re-simulate, which is loss, not deceit.
	AuditLedgered   int `json:"audit_ledgered"`
	AuditDivergent  int `json:"audit_divergent"`
	AuditUnledgered int `json:"audit_unledgered"`
	AuditMissing    int `json:"audit_missing"`

	Elapsed string `json:"elapsed"`
}

func run(seed int64, duration time.Duration, workers int, faultList, storeDir, out string, verbose bool) error {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	var fsFaults, httpFaults, killFaults bool
	for _, f := range strings.Split(faultList, ",") {
		switch strings.TrimSpace(f) {
		case "fs":
			fsFaults = true
		case "http":
			httpFaults = true
		case "kill":
			killFaults = true
		case "":
		default:
			return fmt.Errorf("unknown fault surface %q (want fs, http, kill)", f)
		}
	}
	conf := chaos.Config{}
	if fsFaults {
		conf.TornWrite, conf.BitFlip = 0.05, 0.05
		conf.ENOSPC, conf.SyncFail, conf.CrashRename = 0.02, 0.02, 0.02
	}
	if httpFaults {
		conf.Drop, conf.Delay, conf.Dup, conf.ServerError = 0.04, 0.08, 0.04, 0.04
		conf.MaxDelay = 25 * time.Millisecond
	}
	in := chaos.New(seed, conf)

	if storeDir == "" {
		dir, err := os.MkdirTemp("", "proteus-chaos-")
		if err != nil {
			return err
		}
		storeDir = dir
		defer os.RemoveAll(dir)
	}

	ctx := context.Background()
	start := time.Now()
	rep := soakReport{Seed: seed, Workers: workers}
	for time.Since(start) < duration {
		iterSeed := seed + int64(rep.Iterations)
		camp := campaignConf(iterSeed)

		// Fault-free reference on a private local engine.
		ref := camp
		ref.Engine = engine.New(engine.Config{Workers: 2})
		want, err := reportBytes(ctx, ref)
		if err != nil {
			return fmt.Errorf("iteration %d: fault-free reference run: %w", rep.Iterations, err)
		}

		got, stats, diverged, err := chaosIteration(ctx, iterArgs{
			campaign: camp, injector: in, logger: logger,
			storeDir: storeDir, workers: workers,
			fsFaults: fsFaults, httpFaults: httpFaults, killFaults: killFaults,
		})
		if err != nil {
			return fmt.Errorf("iteration %d: chaos run: %w", rep.Iterations, err)
		}
		if !bytes.Equal(want, got) {
			rep.Mismatches++
			fmt.Fprintf(os.Stderr, "iteration %d: REPORT MISMATCH\nfault-free: %s\nchaos:      %s\n",
				rep.Iterations, want, got)
		}
		rep.LeaseExpired += stats.LeaseExpired
		rep.Requeued += stats.Requeued
		rep.StaleReports += stats.StaleReports
		rep.WorkersEvicted += stats.WorkersEvicted
		rep.ItemsLost += stats.QuarantinedN
		rep.ScrubDiverged += diverged
		rep.Iterations++
	}

	// Repair pass: scrub every store, then verify a second scrub finds
	// nothing — latent corruption must not outlive the soak.
	dirs, err := filepath.Glob(filepath.Join(storeDir, "*"))
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		st, err := resultstore.Open(dir)
		if err != nil {
			return fmt.Errorf("opening %s for scrub: %w", dir, err)
		}
		sr, err := st.Scrub()
		if err != nil {
			return fmt.Errorf("scrubbing %s: %w", dir, err)
		}
		rep.ScrubScanned += sr.Scanned
		rep.ScrubCorrupt += sr.Corrupt
		if again, err := st.Scrub(); err != nil || again.Corrupt != 0 {
			return fmt.Errorf("store %s still corrupt after scrub: %+v (%v)", dir, again, err)
		}
		q, err := st.Quarantined()
		if err != nil {
			return err
		}
		rep.StoreQuarantined += q
	}

	// Offline audit on the real filesystem: every entry that survived the
	// scrub must match the chain, and nothing the recording hook wrote may
	// be missing from it. Quarantined corpses show up as Missing — loss
	// the cache will repair by re-simulating, not deceit — so they are
	// tolerated here; divergence or unledgered entries are not.
	coDir := filepath.Join(storeDir, "coordinator")
	if _, statErr := os.Stat(ledger.DefaultPath(coDir)); statErr == nil {
		st, err := resultstore.Open(coDir)
		if err != nil {
			return err
		}
		lg, err := ledger.Open(ledger.DefaultPath(coDir), nil)
		if err != nil {
			return fmt.Errorf("final ledger open: %w", err)
		}
		arep, err := ledger.Audit(st, lg)
		if err != nil {
			return fmt.Errorf("final ledger audit: %w", err)
		}
		rep.LedgerRecords = arep.Records
		rep.LedgerLeaves = arep.Leaves
		rep.AuditLedgered = arep.Ledgered
		rep.AuditDivergent = len(arep.Divergent)
		rep.AuditUnledgered = len(arep.Unledgered)
		rep.AuditMissing = len(arep.Missing)
	}

	rep.Faults = in.Counters()
	rep.Elapsed = time.Since(start).Round(time.Millisecond).String()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	os.Stdout.Write(data)

	switch {
	case rep.Iterations == 0:
		return errors.New("no iterations completed within the duration")
	case rep.Mismatches > 0:
		return fmt.Errorf("%d report mismatches", rep.Mismatches)
	case rep.ItemsLost > 0:
		return fmt.Errorf("%d cluster items quarantined (unrecovered work)", rep.ItemsLost)
	case rep.ScrubDiverged > 0:
		return fmt.Errorf("%d store entries diverged from the ledger's sealed digests", rep.ScrubDiverged)
	case rep.AuditDivergent > 0 || rep.AuditUnledgered > 0:
		return fmt.Errorf("final ledger audit failed: %d divergent, %d unledgered",
			rep.AuditDivergent, rep.AuditUnledgered)
	case (fsFaults || httpFaults) && in.Total() == 0:
		return errors.New("fault surfaces enabled but nothing fired; soak proved nothing")
	}
	return nil
}

// campaignConf is the per-iteration campaign: small enough for a few
// seconds per run, rich enough (2 benches × 2 schemes, torn-write
// sweeps) that tuple reports carry real classification work. The
// campaign seed varies per iteration so the soak does not keep
// replaying one memoized answer.
func campaignConf(iterSeed int64) crashcampaign.Config {
	faults, err := crashcampaign.ParseFaults("torn")
	if err != nil {
		panic(err)
	}
	return crashcampaign.Config{
		Benches: []workload.Kind{workload.Queue, workload.StringSwap},
		Schemes: []core.Scheme{core.Proteus, core.ATOM},
		Params: workload.Params{Threads: 2, InitOps: 64, SimOps: 16, Seed: 11,
			SSItems: 64, SSStrSize: 64},
		Sim:    config.Default(),
		Sweep:  4,
		Faults: faults,
		Seed:   iterSeed,
	}
}

func reportBytes(ctx context.Context, c crashcampaign.Config) ([]byte, error) {
	rep, err := crashcampaign.Run(ctx, c)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type iterArgs struct {
	campaign   crashcampaign.Config
	injector   *chaos.Injector
	logger     *slog.Logger
	storeDir   string
	workers    int
	fsFaults   bool
	httpFaults bool
	killFaults bool
}

// chaosIteration runs one campaign on a full in-process cluster — serve
// HTTP front, coordinator, pull workers with their own stores — under
// the injector's faults, and returns the report bytes, the
// coordinator's closing stats, and the number of coordinator store
// entries its scrub found diverging from the ledger (must be zero).
func chaosIteration(ctx context.Context, a iterArgs) ([]byte, cluster.Stats, int, error) {
	ctx, cancel := context.WithTimeout(ctx, 3*time.Minute)
	defer cancel()

	openStore := func(name string) (*resultstore.Store, error) {
		var fsys resultstore.FS
		if a.fsFaults {
			fsys = chaos.NewFS(a.injector)
		}
		return resultstore.OpenFS(filepath.Join(a.storeDir, name), fsys)
	}

	coStore, err := openStore("coordinator")
	if err != nil {
		return nil, cluster.Stats{}, 0, err
	}
	// The provenance ledger lives inside the coordinator store and is
	// written through the same lying filesystem: every sealed batch must
	// survive torn writes and bit flips or refuse to commit, and nothing
	// the faults do may ever make it vouch for bytes it never sealed.
	var ledgerFS resultstore.FS
	if a.fsFaults {
		ledgerFS = chaos.NewFS(a.injector)
	}
	lg, err := openLedgerRetry(ledger.DefaultPath(coStore.Dir()), ledgerFS)
	if err != nil {
		return nil, cluster.Stats{}, 0, fmt.Errorf("opening ledger: %w", err)
	}
	admissions := ledger.NewBatcher(lg, 16, 10*time.Millisecond)
	recStore := ledger.NewRecordingStore(coStore, admissions)
	coStore.SetVerifier(ledger.DigestVerifier(lg))
	co := cluster.NewCoordinator(cluster.Config{
		LeaseTTL:    time.Second,
		RetryBudget: 10,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  500 * time.Millisecond,
		Publish:     cluster.PublishToStore(recStore, a.logger),
		Logger:      a.logger,
	})
	srv, err := serve.New(serve.Config{
		Engine:     engine.New(engine.Config{Workers: 2, Store: recStore}),
		Store:      coStore,
		Cluster:    co,
		Ledger:     lg,
		Admissions: admissions,
		Logger:     a.logger,
	})
	if err != nil {
		return nil, cluster.Stats{}, 0, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, cluster.Stats{}, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	newWorker := func(name, store string) (*cluster.Worker, error) {
		eng := engine.Config{Workers: 2}
		st, err := openStore(store)
		if err != nil {
			return nil, err
		}
		eng.Store = st
		client := &http.Client{Timeout: 30 * time.Second}
		if a.httpFaults {
			client.Transport = chaos.NewRoundTripper(a.injector)
		}
		w := &cluster.Worker{
			Name: name, Coordinator: url,
			Engine: engine.New(eng),
			Batch:  2, Poll: 20 * time.Millisecond,
			Client:    client,
			Logger:    a.logger,
			RetryBase: 20 * time.Millisecond, RetryMax: 250 * time.Millisecond,
		}
		if a.killFaults {
			// Occasionally stall past the lease TTL before executing: the
			// coordinator must requeue the batch and drop the stalled
			// worker's late completions as stale.
			w.Hooks.Leased = func(items []cluster.Item) {
				if a.injector.Roll("proc.stall", 0.05) {
					time.Sleep(1500 * time.Millisecond)
				}
			}
		}
		return w, nil
	}

	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	startWorker := func(w *cluster.Worker, runCtx context.Context) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(runCtx)
		}()
	}
	for i := 0; i < a.workers; i++ {
		w, err := newWorker(fmt.Sprintf("worker-%d", i), fmt.Sprintf("worker-%d", i))
		if err != nil {
			stopWorkers()
			return nil, cluster.Stats{}, 0, err
		}
		startWorker(w, wctx)
	}
	if a.killFaults {
		// The victim dies the instant it first leases work — SIGKILL as
		// the coordinator sees it: held leases, then silence. A phoenix
		// replacement (same store) joins so capacity recovers.
		victimCtx, killVictim := context.WithCancel(wctx)
		defer killVictim()
		var once sync.Once
		victim, err := newWorker("victim", "victim")
		if err != nil {
			stopWorkers()
			return nil, cluster.Stats{}, 0, err
		}
		victim.Hooks.Leased = func(items []cluster.Item) {
			once.Do(killVictim)
		}
		startWorker(victim, victimCtx)
		phoenix, err := newWorker("phoenix", "victim")
		if err != nil {
			stopWorkers()
			return nil, cluster.Stats{}, 0, err
		}
		startWorker(phoenix, wctx)
	}

	got, runErr := func() ([]byte, error) {
		rep, err := cluster.RunCampaign(ctx, co, a.campaign)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}()

	// Drive the serve front door too: the campaign above scatters tuples
	// to workers, but only direct submissions flow through the admission
	// batcher and the recording store, so this is what makes every
	// iteration seal real leaves (admissions at submit, results at
	// store-write) while the fault injector is live.
	if runErr == nil {
		runErr = submitSims(ctx, url, a.campaign.Seed)
	}

	// Exercise the operator surface while the stack is still up: a scrub
	// over HTTP and a metrics scrape must both succeed under chaos. These
	// use a clean client — they model the operator, not the fleet. The
	// scrub's diverged keys are entries whose bytes match their own
	// digest but not the one the ledger sealed for them.
	diverged := 0
	if runErr == nil {
		runErr = func() error {
			resp, err := http.Post(url+"/v1/store/scrub", "application/json", nil)
			if err != nil {
				return fmt.Errorf("scrub endpoint: %w", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("scrub endpoint returned %d", resp.StatusCode)
			}
			var sr resultstore.ScrubReport
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				return fmt.Errorf("scrub endpoint: decoding report: %w", err)
			}
			diverged = len(sr.Diverged)
			return nil
		}()
	}
	if runErr == nil {
		if resp, err := http.Get(url + "/metrics"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		} else {
			runErr = fmt.Errorf("metrics scrape: %w", err)
		}
	}

	stats := co.Stats()
	stopWorkers()
	wg.Wait()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(shutCtx)
	srv.Drain(shutCtx)
	shutCancel()
	ln.Close()
	// Close the batcher last, as proteus-served does: until the server
	// has shut down a /complete handler can still be publishing, and its
	// leaf must be sealed, not dropped.
	admissions.Close()
	return got, stats, diverged, runErr
}

// openLedgerRetry opens the ledger through a possibly-lying filesystem.
// Open re-verifies the whole chain, so a bit-flipped *read* of a good
// file looks exactly like corruption; retrying separates lying reads
// (transient — the next read tells the truth) from genuine on-disk
// damage (persistent, and a soak failure, because every append was
// read-back-verified before it committed).
func openLedgerRetry(path string, fsys resultstore.FS) (*ledger.Ledger, error) {
	var lg *ledger.Ledger
	var err error
	for i := 0; i < 8; i++ {
		if lg, err = ledger.Open(path, fsys); err == nil {
			return lg, nil
		}
	}
	return nil, err
}

// submitSims pushes two small sim jobs through the HTTP front door —
// the path the campaign does not take — and polls each to completion.
// A finished sim must eventually carry a verifying admission proof in
// its status: the submission was sealed into the chain, and the proof
// survived whatever the injector did to the ledger file. The sim seed
// follows the iteration so result leaves keep being minted rather than
// answered from cache.
func submitSims(ctx context.Context, url string, seed int64) error {
	type status struct {
		ID        string                 `json:"id"`
		State     string                 `json:"state"`
		Error     string                 `json:"error"`
		Admission *ledger.InclusionProof `json:"admission"`
	}
	for _, scheme := range []string{"Proteus", "ATOM"} {
		body, err := json.Marshal(map[string]any{
			"type": "sim", "bench": "QE", "scheme": scheme,
			"threads": 2, "simops": 16, "initops": 64, "seed": seed,
		})
		if err != nil {
			return err
		}
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("submit sim: %w", err)
		}
		var st status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("submit sim: decoding response: %w", err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("sim %s: no verifying admission proof before deadline (state %s)", st.ID, st.State)
			}
			resp, err := http.Get(url + "/v1/jobs/" + st.ID)
			if err != nil {
				return fmt.Errorf("sim %s: poll: %w", st.ID, err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("sim %s: poll decode: %w", st.ID, err)
			}
			switch st.State {
			case "failed", "cancelled":
				return fmt.Errorf("sim %s: state %s: %s", st.ID, st.State, st.Error)
			case "done":
				if st.Admission != nil {
					if err := st.Admission.Verify(); err != nil {
						return fmt.Errorf("sim %s: admission proof does not verify: %w", st.ID, err)
					}
				}
			}
			if st.State == "done" && st.Admission != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}
