// loadcheck validates a `cstrace -mode load -stats` JSON summary: the CI load smoke
// runs it after the harness to turn "the run printed numbers" into hard
// assertions — traffic flowed, the fleet reached full strength, and (when
// disturbance injection was on) the kill was recorded and recovered from.
//
// Usage: loadcheck -stats loadstats.json -bots 6 -expect-kill
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cstrace/internal/loadtest"
)

func main() {
	statsPath := flag.String("stats", "", "cstrace -mode load -stats JSON file to validate")
	bots := flag.Int("bots", 0, "expected fleet size (0 = use the file's own bot count)")
	expectKill := flag.Bool("expect-kill", false, "require a recorded and recovered kill event")
	flag.Parse()

	if *statsPath == "" {
		fmt.Fprintln(os.Stderr, "loadcheck: -stats is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*statsPath)
	if err != nil {
		fatalf("%v", err)
	}
	var st loadtest.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		fatalf("parse %s: %v", *statsPath, err)
	}

	want := st.Bots
	if *bots > 0 {
		want = *bots
	}
	if st.Bots != want {
		fatalf("stats report %d bots, want %d", st.Bots, want)
	}
	if st.Final.Connects < int64(want) {
		fatalf("only %d connects for %d bots", st.Final.Connects, want)
	}
	if st.Final.Sent == 0 || st.Final.Recv == 0 {
		fatalf("no traffic: sent=%d recv=%d", st.Final.Sent, st.Final.Recv)
	}
	full := false
	for _, s := range st.Samples {
		full = full || s.Active == int64(want)
	}
	if !full && st.Final.Active != int64(want) {
		fatalf("fleet never reached full strength (%d bots)", want)
	}
	if *expectKill {
		switch {
		case st.Kill == nil:
			fatalf("no kill event recorded (expected one)")
		case st.Kill.RecoveredAt == 0:
			fatalf("kill at %v never recovered", st.Kill.At)
		case st.Kill.RecoveredAt <= st.Kill.At:
			fatalf("recovery at %v precedes kill at %v", st.Kill.RecoveredAt, st.Kill.At)
		case st.Final.Failovers < 1:
			fatalf("kill recorded but no failovers counted")
		default:
			fmt.Printf("loadcheck: kill at %v recovered at %v (%d failovers)\n",
				st.Kill.At, st.Kill.RecoveredAt, st.Final.Failovers)
		}
	}
	fmt.Printf("loadcheck: ok — %d bots, %d connects, %d sent / %d recv over %v\n",
		st.Bots, st.Final.Connects, st.Final.Sent, st.Final.Recv, st.Duration)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadcheck: "+format+"\n", args...)
	os.Exit(1)
}
