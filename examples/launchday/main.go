// Launchday: the paper's §V provisioning question at fleet scale. A
// "Microsoft or Sony launch" is not one busy server but many — here eight
// servers of mixed sizes come up with a 6× release-day arrival surge, their
// demand peaks spread across time zones, and the merged stream is analyzed
// as one aggregate: the numbers an operator provisions against.
//
//	go run ./examples/launchday
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"cstrace"
)

func main() {
	cfg := cstrace.LaunchDay(1, 8)
	// Region rollout: each server opens two minutes after the previous.
	cfg.Spec.Stagger = 2 * time.Minute
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	cfg.PerServer = cstrace.PerServerSlim

	res, err := cstrace.RunScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The fleet summary alone: per-server breakdown plus the aggregate
	// provisioning numbers. res.WriteReport(os.Stdout) would prepend the
	// full paper report (Tables I-III, Figs 1-13) computed over the merged
	// stream.
	if err := res.WriteFleetReport(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The provisioning curve: mean vs tail of aggregate bandwidth. The
	// gap is what buying for the mean would have cost in brownouts.
	pct := res.BandwidthPercentiles(0.50, 0.99)
	fmt.Printf("aggregate bandwidth: p50 %.0f kbs, p99 %.0f kbs (buy the tail, not the mean)\n",
		pct[0], pct[1])

	// Per-box vs aggregate: each server alone is as predictable as the
	// paper's single server; the fleet aggregate inherits that stability
	// once the launch transient decays.
	for _, s := range res.Servers {
		t2 := s.Slim.TableII()
		fmt.Printf("  %s: %.1f kbs/slot on its own clock\n",
			s.Name, t2.MeanBW.Kbs()/float64(s.Game.Slots))
	}
	fmt.Printf("fleet: %d slots at %.1f kbs/slot aggregate (paper: ~40 kbs per modem slot)\n",
		res.TotalSlots(), res.PerSlotKbs())
}
