package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cstrace/internal/gamesim"
	"cstrace/internal/trace"
)

// TestSummarySuiteMatchesSuite: a SummarySuite fed a stream cut into random
// blocks — as records, as column blocks, or each block either way at
// random — digests to exactly what Summarize reads off a full Suite fed
// the same stream, at span zero and at the nominal duration.
func TestSummarySuiteMatchesSuite(t *testing.T) {
	type stream struct {
		name string
		dur  time.Duration
		recs []trace.Record
	}
	var streams []stream
	for _, seed := range []uint64{5, 11} {
		game := shardWorkload(t)
		game.Seed = seed
		game.Duration, game.Warmup = 90*time.Second, time.Minute
		var recs trace.Collect
		if _, err := gamesim.Run(game, &recs, nil); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{fmt.Sprintf("gamesim %d", seed), game.Duration, recs.Records})
	}
	streams = append(streams,
		stream{"synthetic 1", 130 * time.Second, naiveStream(1, 130*time.Second)},
		stream{"synthetic 2", 70 * time.Second, naiveStream(2, 70*time.Second)})

	for _, st := range streams {
		full := newTestSuite(t, DefaultSuiteConfig(st.dur))
		full.HandleBatch(st.recs)
		for _, delivery := range []string{"records", "columns", "mixed"} {
			rng := rand.New(rand.NewSource(int64(len(st.recs))))
			s := NewSummarySuite()
			for i := 0; i < len(st.recs); {
				n := min(1+rng.Intn(2*trace.BlockSize), len(st.recs)-i)
				blk := st.recs[i : i+n]
				i += n
				switch {
				case delivery == "columns" || delivery == "mixed" && rng.Intn(3) == 0:
					s.IngestColumns(columnsOf(blk))
				case delivery == "mixed" && rng.Intn(2) == 0:
					owned := trace.NewBlock()
					*owned = append(*owned, blk...)
					s.IngestBlock(owned)
				default:
					s.HandleBatch(blk)
				}
			}
			for _, span := range []time.Duration{0, st.dur} {
				want, got := Summarize(full, span), s.Summary(span)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s, span %v: SummarySuite diverges from Summarize:\n got %+v\nwant %+v",
						st.name, delivery, span, got, want)
				}
			}
		}
	}
}
