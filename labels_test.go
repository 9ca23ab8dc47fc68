package phideep_test

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/feed"
	"phideep/internal/parallel"
	"phideep/internal/serve"
)

// TestGoroutineRoleLabels checks that each long-lived goroutine labels
// itself with its role where it starts: pool helpers role=helper, the
// feed loader role=loader and serving workers role=worker. It reads the
// labels back from a debug=1 goroutine profile; CPU profiles carry the
// same labels, so `go tool pprof -tagfocus role=helper` splits by role.
func TestGoroutineRoleLabels(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	ld := feed.NewLoader(1)
	defer ld.Close()
	cfg := autoencoder.Config{Visible: 16, Hidden: 4, Lambda: 1e-4, Beta: 0.1, Rho: 0.05, Batch: 2, Seed: 1}
	srv, err := serve.New(serve.Autoencoder(cfg, nil), serve.Config{Workers: 1, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A goroutine labels itself when it first runs, so poll.
	var missing []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		missing = missing[:0]
		for _, role := range []string{"helper", "loader", "worker"} {
			if !strings.Contains(buf.String(), `# labels: {"role":"`+role+`"}`) {
				missing = append(missing, role)
			}
		}
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine labelled role=%v in the goroutine profile:\n%s", missing, buf.String())
		}
	}
}
