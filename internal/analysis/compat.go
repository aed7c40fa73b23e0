package analysis

// Names kept only because the benchmark module under bench/ compiles
// against them. ROADMAP item 1a deletes them together with bench/'s uses.

// Rebalance described one collector-unit move between shard workers.
//
// Deprecated: the shard deals its units once and never moves them, so no
// Rebalance is ever produced. bench/ is the only reader; ROADMAP 1a deletes
// it.
type Rebalance struct {
	Block    int64
	Unit     string
	From, To int
}

// Rebalances returns nil: the shard never moves a unit.
//
// Deprecated: always nil. bench/ is the only reader; ROADMAP 1a deletes it.
func (sh *ShardedSuite) Rebalances() []Rebalance { return nil }
