// Package population models aggregate player populations across many
// servers, the dimension the paper explicitly leaves open: "it is expected
// that active user populations will not, in general, exhibit the
// predictability of the server studied in this paper and that the global
// usage pattern itself may exhibit a high degree of self-similarity", and
// later, "Self-similarity in aggregate game traffic in this case will be
// directly dependent on the self-similarity of user populations [24], [25]."
//
// The model is the classical M/G/∞ superposition Henderson applied to game
// populations: players arrive Poisson and remain on-line for a session
// drawn from some distribution, each contributing the paper's fixed
// per-player packet and bit rates (provision.PaperBudget) while present
// (§IV-B: aggregate traffic
// "is effectively linear to the number of active players"). With
// heavy-tailed (Pareto, 1<α<2) sessions the occupancy process N(t) is
// long-range dependent with H = (3−α)/2; with exponential sessions it is
// short-range dependent (H = ½). SelfSimilarityExperiment demonstrates
// both, closing the loop with the paper's own variance-time methodology.
package population

import (
	"errors"
	"time"

	"cstrace/internal/dist"
	"cstrace/internal/hurst"
)

// Config parameterizes one population occupancy simulation.
type Config struct {
	Seed     uint64
	Duration time.Duration // measured window
	// Warmup precedes the window so occupancy starts in steady state
	// (sessions that began before the window can still be active).
	Warmup     time.Duration
	Resolution time.Duration // occupancy sampling bin

	ArrivalRate float64      // player arrivals per second (aggregate)
	Session     dist.Sampler // session length, seconds
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return errors.New("population: Duration must be positive")
	case c.Resolution <= 0:
		return errors.New("population: Resolution must be positive")
	case c.Warmup < 0:
		return errors.New("population: Warmup must be non-negative")
	case c.ArrivalRate <= 0:
		return errors.New("population: ArrivalRate must be positive")
	case c.Session == nil:
		return errors.New("population: Session sampler must be set")
	}
	return nil
}

// Occupancy simulates the arrival process and returns the per-bin
// time-averaged number of concurrent players over the measured window.
// Each bin holds the integral of N(t) over the bin divided by the bin
// width, which is exact (no sampling aliasing).
func Occupancy(cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := dist.NewRNG(cfg.Seed)
	window := cfg.Duration.Seconds()
	warm := cfg.Warmup.Seconds()
	binW := cfg.Resolution.Seconds()
	n := int(window / binW)
	if n == 0 {
		return nil, errors.New("population: Duration shorter than Resolution")
	}
	bins := make([]float64, n)

	// Arrivals over [-warm, window); time 0 is the window start.
	t := -warm
	for {
		t += rng.ExpFloat64() / cfg.ArrivalRate
		if t >= window {
			break
		}
		s := cfg.Session.Sample(rng)
		if s <= 0 {
			continue
		}
		addInterval(bins, binW, t, t+s)
	}
	for i := range bins {
		bins[i] /= binW
	}
	return bins, nil
}

// addInterval accumulates the overlap of [a, b) seconds with every bin.
func addInterval(bins []float64, binW, a, b float64) {
	if b <= 0 || a >= float64(len(bins))*binW {
		return
	}
	if a < 0 {
		a = 0
	}
	limit := float64(len(bins)) * binW
	if b > limit {
		b = limit
	}
	first := int(a / binW)
	last := int(b / binW)
	if last >= len(bins) {
		last = len(bins) - 1
	}
	if first == last {
		bins[first] += b - a
		return
	}
	bins[first] += float64(first+1)*binW - a
	for i := first + 1; i < last; i++ {
		bins[i] += binW
	}
	bins[last] += b - float64(last)*binW
}

// TheoreticalH returns the Hurst parameter an M/G/∞ occupancy process with
// Pareto(α) sessions converges to: H = (3−α)/2 for 1 < α < 2.
func TheoreticalH(alpha float64) float64 { return (3 - alpha) / 2 }

// ParetoSession returns a Pareto session-length sampler with the given
// shape and mean seconds: mean = xm·α/(α−1) ⇒ xm = mean·(α−1)/α.
func ParetoSession(alpha, mean float64) dist.Sampler {
	return dist.Pareto{Xm: mean * (alpha - 1) / alpha, Alpha: alpha}
}

// SelfSimilarityResult compares heavy-tailed and exponential session
// populations under identical load.
type SelfSimilarityResult struct {
	// Heavy is the variance-time estimate for Pareto sessions; Exp for
	// exponential sessions of the same mean.
	Heavy, Exp hurst.Estimate
	// HeavyPoints/ExpPoints are the variance-time plots (Fig 5 style).
	HeavyPoints, ExpPoints []hurst.Point
	// Alpha is the Pareto shape; TheoryH its limit H = (3−α)/2.
	Alpha   float64
	TheoryH float64
	// MeanOccupancy of the heavy-tailed run, for sanity checks.
	MeanOccupancy float64
}

// SelfSimilarityExperiment runs the two populations and estimates H from
// each occupancy series using the paper's aggregated-variance method.
// alpha must be in (1, 2); meanSession is in seconds.
//
// The slope is fitted only at block sizes several times the session
// correlation time: below it even a short-range-dependent occupancy keeps
// variance across scales (the population analogue of the paper's own
// sub-50 ms and sub-30 min variance-time regions), so including those
// levels would inflate H for both processes and separate nothing.
func SelfSimilarityExperiment(cfg Config, alpha, meanSession float64) (SelfSimilarityResult, error) {
	if alpha <= 1 || alpha >= 2 {
		return SelfSimilarityResult{}, errors.New("population: alpha must be in (1, 2)")
	}
	heavyCfg := cfg
	heavyCfg.Session = ParetoSession(alpha, meanSession)
	expCfg := cfg
	expCfg.Seed = cfg.Seed + 1
	expCfg.Session = dist.Exponential{MeanV: meanSession}

	heavyOcc, err := Occupancy(heavyCfg)
	if err != nil {
		return SelfSimilarityResult{}, err
	}
	expOcc, err := Occupancy(expCfg)
	if err != nil {
		return SelfSimilarityResult{}, err
	}

	res := SelfSimilarityResult{Alpha: alpha, TheoryH: TheoreticalH(alpha)}
	for _, n := range heavyOcc {
		res.MeanOccupancy += n
	}
	res.MeanOccupancy /= float64(len(heavyOcc))

	levels := hurst.DefaultLevels(len(heavyOcc) / 8)
	res.HeavyPoints = hurst.VarianceTime(heavyOcc, levels)
	res.ExpPoints = hurst.VarianceTime(expOcc, levels)
	lo, hi := fitRange(levels, meanSession/cfg.Resolution.Seconds())
	if res.Heavy, err = hurst.EstimateFromPoints(res.HeavyPoints, lo, hi); err != nil {
		return res, err
	}
	if res.Exp, err = hurst.EstimateFromPoints(res.ExpPoints, lo, hi); err != nil {
		return res, err
	}
	return res, nil
}

// fitRange picks the block-size band for the slope fit: from a few times
// the session correlation time (in bins) up to the largest level that still
// averages over enough blocks.
func fitRange(levels []int, corrBins float64) (lo, hi int) {
	lo = int(4 * corrBins)
	if lo < 1 {
		lo = 1
	}
	hi = levels[len(levels)-1]
	if lo >= hi {
		lo = levels[0]
	}
	return lo, hi
}
