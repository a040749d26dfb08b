package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestFigureRendersSurvivorsPastJobFailure is the end-to-end regression
// test for the suite-abort bug: when some jobs of a figure fail, the
// figure must still render — failed cells as "-", the geomean over the
// surviving rows — instead of erroring out or printing a 0.000 geomean.
// A cell is missing exactly when a job it reads failed: the static-elim
// case fails only the static-elimination runs, so the dynamic(LLT)
// column, which never reads them, stays intact.
func TestFigureRendersSurvivorsPastJobFailure(t *testing.T) {
	cases := []struct {
		name            string
		fail            func(engine.Job) bool
		table           func(*Suite) (*stats.Table, error)
		missing, intact []string
	}{
		{
			name:    "figure6-atom",
			fail:    func(j engine.Job) bool { return j.Scheme == core.ATOM },
			table:   (*Suite).Figure6,
			missing: []string{core.ATOM.String()},
			intact:  []string{core.Proteus.String()},
		},
		{
			name:    "static-elim",
			fail:    func(j engine.Job) bool { return j.Log.StaticLogElim },
			table:   (*Suite).StaticVsDynamicFiltering,
			missing: []string{"static(compiler)", "logops-emitted-ratio"},
			intact:  []string{"dynamic(LLT)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			injected := errors.New("injected job failure")
			eng := engine.New(engine.Config{Workers: 4, Trace: func(j engine.Job) (*trace.Tracer, error) {
				if tc.fail(j) {
					return nil, injected
				}
				return nil, nil
			}})
			tab, err := tc.table(NewSuite(context.Background(), Quick(), eng))
			if err != nil {
				t.Fatalf("figure aborted on per-job failures: %v", err)
			}
			// Every cell reading a failed job — its geomean included — is
			// missing; the other columns are intact.
			for _, row := range tab.Rows {
				for _, col := range tc.missing {
					if v := tab.Get(row, col); !math.IsNaN(v) {
						t.Errorf("%s cell %q = %v, want NaN (a job it reads failed)", col, row, v)
					}
				}
				for _, col := range tc.intact {
					if v := tab.Get(row, col); math.IsNaN(v) || v <= 0 {
						t.Errorf("%s cell %q = %v, want a finite positive value", col, row, v)
					}
				}
			}
			out := tab.String()
			if strings.Contains(out, "NaN") {
				t.Fatalf("raw NaN leaked into the rendered table:\n%s", out)
			}
			if !strings.Contains(out, "-") {
				t.Fatalf("missing cells not rendered as -:\n%s", out)
			}

			c := eng.Counters()
			if c.Failed != 6 { // one failing job per Table 2 benchmark
				t.Errorf("Failed = %d, want 6", c.Failed)
			}
			var failed int
			for _, m := range eng.Metrics() {
				if m.Err != "" {
					failed++
					if !strings.Contains(m.Err, injected.Error()) {
						t.Errorf("metric error %q does not carry the cause", m.Err)
					}
				}
			}
			if failed != 6 {
				t.Errorf("metrics report %d failures, want 6", failed)
			}
		})
	}
}
