package loadtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is one monitor snapshot of the whole harness: the continuous
// status line a ctraffic-style run prints once a second, and the timeline
// entry the JSON stats keep for offline analysis. All counters are
// cumulative since the start of the run; Active is instantaneous.
type Sample struct {
	// T is the offset from harness start.
	T time.Duration `json:"t"`
	// Active is the number of currently connected bots.
	Active int64 `json:"active"`
	// Connects counts successful connection handshakes (including
	// reconnects after a fail-over).
	Connects int64 `json:"connects"`
	// Failed counts failed connection attempts (dial/handshake errors and
	// server-full rejects).
	Failed int64 `json:"failed"`
	// Failovers counts connections abandoned because the server went
	// silent, triggering a re-browse.
	Failovers int64 `json:"failovers"`
	// Sent and Dropped count user commands: Sent crossed the socket,
	// Dropped were discarded by the client-side loss injection.
	Sent    int64 `json:"sent"`
	Dropped int64 `json:"dropped"`
	// Recv counts snapshots received by the bots.
	Recv int64 `json:"recv"`
	// BytesSent and BytesRecv are application payload totals.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// RTT percentiles over all info-probe round trips so far (zero until
	// the first probe completes).
	RTTP50 time.Duration `json:"rtt_p50"`
	RTTP95 time.Duration `json:"rtt_p95"`
	RTTP99 time.Duration `json:"rtt_p99"`
}

// MonitorLine renders the sample as the harness's status line, e.g.
//
//	t=2s active=8 conn=8 fail=0 over=0 sent=384 drop=3 recv=320 txB=13824 rxB=40960 rtt=181µs/260µs/301µs
//
// The format is lossless: ParseMonitorLine inverts it exactly.
func (s Sample) MonitorLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%s active=%d conn=%d fail=%d over=%d sent=%d drop=%d recv=%d txB=%d rxB=%d rtt=%s/%s/%s",
		s.T, s.Active, s.Connects, s.Failed, s.Failovers,
		s.Sent, s.Dropped, s.Recv, s.BytesSent, s.BytesRecv,
		s.RTTP50, s.RTTP95, s.RTTP99)
	return b.String()
}

// ParseMonitorLine parses a line produced by MonitorLine back into a
// Sample. Unknown keys, missing keys and malformed values are errors.
func ParseMonitorLine(line string) (Sample, error) {
	var s Sample
	fields := strings.Fields(line)
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Sample{}, fmt.Errorf("loadtest: monitor field %q is not key=value", f)
		}
		if seen[key] {
			return Sample{}, fmt.Errorf("loadtest: duplicate monitor key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "t":
			s.T, err = time.ParseDuration(val)
		case "active":
			s.Active, err = strconv.ParseInt(val, 10, 64)
		case "conn":
			s.Connects, err = strconv.ParseInt(val, 10, 64)
		case "fail":
			s.Failed, err = strconv.ParseInt(val, 10, 64)
		case "over":
			s.Failovers, err = strconv.ParseInt(val, 10, 64)
		case "sent":
			s.Sent, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			s.Dropped, err = strconv.ParseInt(val, 10, 64)
		case "recv":
			s.Recv, err = strconv.ParseInt(val, 10, 64)
		case "txB":
			s.BytesSent, err = strconv.ParseInt(val, 10, 64)
		case "rxB":
			s.BytesRecv, err = strconv.ParseInt(val, 10, 64)
		case "rtt":
			parts := strings.Split(val, "/")
			if len(parts) != 3 {
				return Sample{}, fmt.Errorf("loadtest: rtt field %q wants p50/p95/p99", val)
			}
			if s.RTTP50, err = time.ParseDuration(parts[0]); err == nil {
				if s.RTTP95, err = time.ParseDuration(parts[1]); err == nil {
					s.RTTP99, err = time.ParseDuration(parts[2])
				}
			}
		default:
			return Sample{}, fmt.Errorf("loadtest: unknown monitor key %q", key)
		}
		if err != nil {
			return Sample{}, fmt.Errorf("loadtest: monitor field %q: %w", f, err)
		}
	}
	for _, want := range monitorKeys {
		if !seen[want] {
			return Sample{}, fmt.Errorf("loadtest: monitor line missing %q", want)
		}
	}
	return s, nil
}

// monitorKeys is the full key set of a monitor line, in print order.
var monitorKeys = []string{
	"t", "active", "conn", "fail", "over", "sent", "drop", "recv", "txB", "rxB", "rtt",
}

// KillEvent records the disturbance injection: which target was killed,
// when, and when the fleet had fully failed over (every bot connected
// again). RecoveredAt is zero if the run ended before full recovery — the
// failure window is [At, RecoveredAt].
type KillEvent struct {
	Target      string        `json:"target"`
	At          time.Duration `json:"at"`
	RecoveredAt time.Duration `json:"recovered_at,omitempty"`
}

// RTTStats summarizes the info-probe round-trip distribution.
type RTTStats struct {
	Count  int64         `json:"count"`
	Failed int64         `json:"failed"` // probes that timed out or errored
	Min    time.Duration `json:"min"`
	P50    time.Duration `json:"p50"`
	P95    time.Duration `json:"p95"`
	P99    time.Duration `json:"p99"`
	Max    time.Duration `json:"max"`
}

// BotSummary is one bot slot's accumulated counters across every
// connection it held during the run.
type BotSummary struct {
	ID        int    `json:"id"`
	Server    string `json:"server"` // last server the bot was connected to
	Connects  int64  `json:"connects"`
	Failovers int64  `json:"failovers"`
	// Retries counts backed-off reconnect rounds where every candidate
	// refused this slot (see gameserver.Backoff).
	Retries   int64 `json:"retries"`
	Sent      int64 `json:"sent"`
	Dropped   int64 `json:"dropped"`
	Recv      int64 `json:"recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
}

// Stats is the machine-readable summary of one load run, written by
// csload -stats for offline analysis and gating (tools/loadcheck).
type Stats struct {
	// Run configuration echo.
	Bots      int           `json:"bots"`
	CmdRate   float64       `json:"cmd_rate"`
	Targets   []string      `json:"targets"`
	Duration  time.Duration `json:"duration"` // wall time of the run
	Drop      float64       `json:"drop,omitempty"`
	Jitter    time.Duration `json:"jitter,omitempty"`
	KillAfter time.Duration `json:"kill_after,omitempty"`
	Seed      uint64        `json:"seed"`

	// Final is the closing snapshot; Samples is the monitor timeline.
	Final   Sample   `json:"final"`
	Samples []Sample `json:"samples,omitempty"`

	// Kill is non-nil when a disturbance was injected.
	Kill *KillEvent `json:"kill,omitempty"`

	RTT    RTTStats     `json:"rtt"`
	PerBot []BotSummary `json:"per_bot,omitempty"`
}

// rttQuantiles computes the RTT percentiles from raw samples in seconds.
func rttQuantiles(samples []float64) (p50, p95, p99, min, max time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0, 0, 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	q := func(f float64) time.Duration {
		i := int(f * float64(len(s)-1))
		return time.Duration(s[i] * float64(time.Second))
	}
	return q(0.50), q(0.95), q(0.99),
		time.Duration(s[0] * float64(time.Second)),
		time.Duration(s[len(s)-1] * float64(time.Second))
}
