package cstrace_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"cstrace"
	"cstrace/internal/trace"
)

// ExampleReproduce runs the 30-minute busy-server reproduction and checks
// the paper's headline number: per-player-slot bandwidth sits in the
// saturated-modem band the paper measured (~40 kbs). Use Full(seed) for the
// week-long run that `cstrace -mode week` prints, and Config.Parallelism to
// shard the collectors across cores; res.WriteReport renders Tables I-III
// and every figure.
func ExampleReproduce() {
	res, err := cstrace.Reproduce(cstrace.Quick(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window: %v on a %d-slot server\n", res.Config.Game.Duration, res.Config.Game.Slots)
	fmt.Printf("per-slot bandwidth in the modem band: %v\n", res.PerSlotKbs() > 20 && res.PerSlotKbs() < 80)
	// Output:
	// window: 30m0s on a 22-slot server
	// per-slot bandwidth in the modem band: true
}

// ExampleRunScenario simulates a three-server launch-day fleet — mixed slot
// counts, a decaying arrival surge — and reports the aggregate an operator
// provisions against. Results are deterministic: byte-identical across runs
// and Parallelism settings.
func ExampleRunScenario() {
	cfg := cstrace.LaunchDay(1, 3)
	cfg.Spec.Duration = 5 * time.Minute
	cfg.Spec.Warmup = 2 * time.Minute
	res, err := cstrace.RunScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d servers, %d player slots\n", len(res.Servers), res.TotalSlots())
	fmt.Printf("aggregate traffic analyzed: %v\n", res.Aggregate.TableII.TotalPackets > 0)
	// Output:
	// fleet: 3 servers, 76 player slots
	// aggregate traffic analyzed: true
}

// ExampleAnalyzeTrace persists a generated window as an indexed, compressed
// v4 trace and re-analyzes it with parallel segment decode — the library
// form of `cstrace -mode gen` + `-mode analyze -parallel 4`, where the
// decode workers deliver their blocks straight into the sharded suite. The
// report is byte-identical to a serial scan of the same bytes (and to the
// v1/v2 encodings of the same stream).
func ExampleAnalyzeTrace() {
	cfg := cstrace.Quick(1)
	cfg.Game.Duration = 5 * time.Minute
	cfg.Game.Warmup = 2 * time.Minute

	// The generator's stream is strictly time-ordered, as the trace writer
	// requires, so it goes straight in.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf) // format v4: columnar + indexed + compressed
	cfg.Extra = w
	if _, err := cstrace.Reproduce(cfg); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	a, err := cstrace.AnalyzeTrace(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace format: v%d\n", a.Version)
	fmt.Printf("round trip complete: %v\n", a.Records == w.Count() && a.Warning == "")
	// Output:
	// trace format: v4
	// round trip complete: true
}
