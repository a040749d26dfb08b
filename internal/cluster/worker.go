package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
)

// Worker is the pull-based execution side of the cluster: it registers
// with a coordinator, leases batches of items, heartbeats while
// simulating, executes each item on its own engine (with its own result
// store, typically a directory shared with the coordinator), and reports
// results. It is fail-stop by design — a worker that dies mid-batch
// simply stops heartbeating and the coordinator requeues its leases.
type Worker struct {
	// Name identifies the worker to the coordinator; required and unique
	// per cluster.
	Name string
	// Coordinator is the job server's base URL (e.g. http://host:8080);
	// the /v1/cluster prefix is appended by the client.
	Coordinator string
	// Engine executes leased work; required.
	Engine *engine.Engine
	// Batch is how many items to lease per pull; <= 0 means 2.
	Batch int
	// Poll is how long to wait between empty lease calls; <= 0 means the
	// coordinator's hint (or 250ms).
	Poll time.Duration
	// Client is the HTTP client; nil means a 30s-timeout default.
	Client *http.Client
	// Logger receives structured worker logs; nil discards.
	Logger *slog.Logger

	// RetryBase and RetryMax shape the exponential backoff between the
	// retryAttempts tries of one protocol call (defaults 100ms and 5s);
	// the wait is jittered deterministically by (Name, path, attempt).
	RetryBase time.Duration
	RetryMax  time.Duration

	// Hooks expose fault-injection seams for tests and the chaos soak
	// runner; all-nil in production.
	Hooks WorkerHooks

	heartbeatEvery time.Duration
	pollSeq        int // idle-poll counter feeding the jitter hash
}

// WorkerHooks are optional observation points on the worker's run loop.
type WorkerHooks struct {
	// Leased runs after a non-empty lease, before execution — the seam
	// that simulates a worker dying while holding leases (cancel the
	// worker's context here and nothing completes, so the coordinator
	// must reclaim the batch by lease expiry).
	Leased func(items []Item)
}

func (w *Worker) log() *slog.Logger {
	if w.Logger == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return w.Logger
}

func (w *Worker) client() *http.Client {
	if w.Client == nil {
		return &http.Client{Timeout: 30 * time.Second}
	}
	return w.Client
}

// statusError is a non-200 protocol response; the status code is what
// the retry classifier keys on.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// transient reports whether a protocol error is worth retrying:
// transport failures (connection refused, resets, timeouts — all
// net.Error or url.Error) and 5xx responses are transient; 4xx
// responses and encode/decode failures are permanent.
func transient(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// retryAttempts bounds how many times one protocol call is tried before
// its error surfaces.
const retryAttempts = 6

// postOnce sends one protocol call and decodes the response into out.
// Non-200s surface as statusError for the retry classifier.
func (w *Worker) postOnce(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+"/v1/cluster"+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return &statusError{status: resp.StatusCode,
			msg: fmt.Sprintf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// post sends one protocol call, retrying transient failures (transport
// errors, 5xx) with jittered exponential backoff. Permanent errors
// return immediately.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	base := w.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := w.RetryMax
	if max <= 0 {
		max = 5 * time.Second
	}
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, backoff(base, max, attempt, retryJitter, w.Name, path, strconv.Itoa(attempt))) {
			return ctx.Err()
		}
		err = w.postOnce(ctx, path, in, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		if !transient(err) {
			return err
		}
		w.log().Warn("transient protocol error, will retry",
			"path", path, "attempt", attempt+1, "err", err.Error())
	}
	return err
}

// register announces the worker and adopts the coordinator's pacing.
// Run's registration loop retries it.
func (w *Worker) register(ctx context.Context) error {
	var resp registerResponse
	if err := w.postOnce(ctx, "/register", registerRequest{Worker: w.Name}, &resp); err != nil {
		return err
	}
	if resp.HeartbeatMS > 0 {
		w.heartbeatEvery = time.Duration(resp.HeartbeatMS) * time.Millisecond
	} else {
		w.heartbeatEvery = time.Second
	}
	return nil
}

// Run is the worker's main loop: lease, execute, complete, repeat, until
// ctx is cancelled. Transient coordinator errors (it restarted, the
// network blipped) are retried with a fixed pause — the protocol is
// stateless enough that reconnecting is just carrying on.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" || w.Coordinator == "" || w.Engine == nil {
		return errors.New("cluster: Worker needs Name, Coordinator and Engine")
	}
	batch := w.Batch
	if batch <= 0 {
		batch = 2
	}
	for {
		if err := w.register(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.log().Warn("register failed, retrying", "err", err.Error())
			if !sleepCtx(ctx, time.Second) {
				return ctx.Err()
			}
			continue
		}
		break
	}
	w.log().Info("registered", "coordinator", w.Coordinator, "heartbeat", w.heartbeatEvery.String())

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var lease leaseResponse
		if err := w.post(ctx, "/lease", leaseRequest{Worker: w.Name, Max: batch}, &lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.log().Warn("lease failed, retrying", "err", err.Error())
			if !sleepCtx(ctx, time.Second) {
				return ctx.Err()
			}
			continue
		}
		if len(lease.Items) == 0 {
			poll := w.Poll
			if poll <= 0 {
				poll = time.Duration(lease.PollMS) * time.Millisecond
				if poll <= 0 {
					poll = 250 * time.Millisecond
				}
			}
			// Stretch each idle poll by up to 50% (hash-jittered, so
			// deterministic per worker) to keep a fleet that went idle
			// together from polling the coordinator in lockstep forever.
			poll += time.Duration(float64(poll) * 0.5 *
				jitter01(w.Name, "idle-poll", strconv.Itoa(w.pollSeq)))
			w.pollSeq++
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		if w.Hooks.Leased != nil {
			w.Hooks.Leased(lease.Items)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		w.runBatch(ctx, lease.Items)
	}
}

// runBatch executes one leased batch under a heartbeat. The items run
// concurrently and the engine's worker pool bounds the work, so a batch
// of crash-campaign tuples (each sweeps in one engine slot) fills as many
// slots as it has tuples. Completions are reported one at a time.
func (w *Worker) runBatch(ctx context.Context, items []Item) {
	ids := make([]string, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx, ids)
	}()
	defer func() {
		stopHB()
		<-hbDone
	}()

	var wg sync.WaitGroup
	var reporting sync.Mutex
	for _, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			result, err := executeItem(ctx, w.Engine, it)
			if ctx.Err() != nil {
				// Shutting down mid-item: do not report a spurious failure;
				// the lease will expire and the item will be re-run.
				return
			}
			req := completeRequest{Worker: w.Name, ID: it.ID, Result: result}
			if err != nil {
				req.Result = nil
				req.Error = err.Error()
			}
			reporting.Lock()
			defer reporting.Unlock()
			var resp completeResponse
			if perr := w.post(ctx, "/complete", req, &resp); perr != nil {
				w.log().Warn("complete failed", "item", it.ID, "err", perr.Error())
				return
			}
			w.log().Info("completed", "item", it.ID, "accepted", resp.Accepted, "failed", err != nil)
		}()
	}
	wg.Wait()
}

// heartbeat extends the batch's leases every heartbeatEvery until ctx is
// cancelled.
func (w *Worker) heartbeat(ctx context.Context, ids []string) {
	period := w.heartbeatEvery
	if period <= 0 {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp heartbeatResponse
			if err := w.post(ctx, "/heartbeat", heartbeatRequest{Worker: w.Name, IDs: ids}, &resp); err != nil {
				if ctx.Err() == nil {
					w.log().Warn("heartbeat failed", "err", err.Error())
				}
				continue
			}
			if len(resp.Lost) > 0 {
				w.log().Warn("leases lost", "items", resp.Lost)
			}
		}
	}
}

// sleepCtx sleeps d or until ctx is done; it reports whether the sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}
