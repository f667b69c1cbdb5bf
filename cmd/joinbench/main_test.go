package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

// captureRun invokes run on experiment exp at test scale with stdout
// captured, failing on a non-zero exit.
func captureRun(t *testing.T, exp string, opcache, prune bool) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run(context.Background(), config{
		exp: exp, m: 64, b: 8, scale: 1, seed: 42, par: 1,
		opcache: opcache, prune: prune,
	})
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("run(%s) exited %d:\n%s", exp, code, buf.String())
	}
	return buf.String()
}

// captureVerify invokes run as a -verify sweep with the given -strategy flag
// value, returning the rendered table.
func captureVerify(t *testing.T, strategy string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run(context.Background(), config{
		m: 64, b: 8, scale: 1, seed: 42, par: 1, verify: 1,
		strategy: strategy, opcache: true, prune: true,
	})
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("run(-verify 1 -strategy %q) exited %d:\n%s", strategy, code, buf.String())
	}
	return buf.String()
}

// The -strategy flag resolves against $ACYCLICJOIN_STRATEGY with
// flag-beats-env precedence, and the resolved value surfaces in the verify
// sweep's scope line.
func TestVerifyStrategyEnvPrecedence(t *testing.T) {
	t.Setenv("ACYCLICJOIN_STRATEGY", "")
	if out := captureVerify(t, ""); !strings.Contains(out, "all strategies") {
		t.Errorf("unset strategy did not sweep all strategies:\n%s", out)
	}
	if out := captureVerify(t, "smallest"); !strings.Contains(out, "strategy smallest vs oracle") {
		t.Errorf("flag not honored:\n%s", out)
	}
	t.Setenv("ACYCLICJOIN_STRATEGY", "first")
	if out := captureVerify(t, ""); !strings.Contains(out, "strategy first vs oracle") {
		t.Errorf("env fallback not honored:\n%s", out)
	}
	if out := captureVerify(t, "smallest"); !strings.Contains(out, "strategy smallest vs oracle") {
		t.Errorf("flag must beat the environment:\n%s", out)
	}
}

// -opcache and -prune both carry a byte-identity contract: every
// combination must render the same table. This pins the memo claim (replay
// charges exactly what the real operator would) and the pruning claim that
// experiment tables only report figures pruning provably does not change.
func TestMemoAndPruneFlagMatrixTablesIdentical(t *testing.T) {
	for _, exp := range []string{"E4", "E25"} {
		ref := captureRun(t, exp, true, true)
		if len(ref) == 0 {
			t.Fatalf("%s rendered empty", exp)
		}
		for _, memo := range []bool{true, false} {
			for _, prune := range []bool{true, false} {
				got := captureRun(t, exp, memo, prune)
				if got != ref {
					t.Fatalf("%s with -opcache=%v -prune=%v differs:\n%s\nwant:\n%s",
						exp, memo, prune, got, ref)
				}
			}
		}
	}
}
