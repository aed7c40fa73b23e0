package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/metricstore"
	"cstrace/internal/trace"
)

// TestRunSpoolToStore drives the daemon's whole life — open the store,
// sweep the spool, stop at the -for deadline, flush — over a spool holding
// one small generated trace: the store must end with one trace row, the
// rolling windows and one service row, the service summary must be
// printed, and a second session over the same spool must re-ingest nothing.
func TestRunSpoolToStore(t *testing.T) {
	spool := t.TempDir()
	f, err := os.Create(filepath.Join(spool, "day1.cst"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := gamesim.PaperConfig(11)
	cfg.Duration = 90 * time.Second
	cfg.Outages = nil
	w := trace.NewWriter(f)
	if _, err := gamesim.Run(cfg, w, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	storePath := filepath.Join(t.TempDir(), "m.csms")
	session := func() (printed string, kinds map[string]int) {
		t.Helper()
		var out strings.Builder
		if err := run(&out, storePath, spool, 20*time.Millisecond, -1, 30*time.Second, "1", "test", 300*time.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		st, err := metricstore.Open(storePath)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		kinds = map[string]int{}
		for _, r := range st.Runs() {
			kinds[r.Kind]++
		}
		return out.String(), kinds
	}

	printed, kinds := session()
	if kinds[metricstore.KindTrace] != 1 || kinds[metricstore.KindWindow] < 1 || kinds[metricstore.KindService] != 1 {
		t.Errorf("store rows after one session: %v; want 1 trace, >= 1 window, 1 service", kinds)
	}
	if !strings.Contains(printed, "("+metricstore.KindService+")") || !strings.Contains(printed, "  records ") {
		t.Errorf("service summary not printed; output:\n%s", printed)
	}

	_, kinds = session()
	if kinds[metricstore.KindTrace] != 1 {
		t.Errorf("second session over the same spool left %d trace rows, want 1", kinds[metricstore.KindTrace])
	}
}
