package trace

import "bytes"

// Hooks for bench_test.go, which lives in package trace_test so it can
// capture its stream from gamesim (a package that imports this one).

// ColumnRuns returns the column runs of every segment of an uncompressed
// (CompressOff) v4 file, in file order.
func ColumnRuns(file []byte) ([][4][]byte, error) {
	ix, err := ReadIndex(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		return nil, err
	}
	segs := make([][4][]byte, 0, len(ix.Segments))
	for _, si := range ix.Segments {
		start := si.Offset + int64(si.frameHeaderLen(ix.Version))
		p := file[start : start+int64(si.PayloadLen)]
		l, _ := parseColHeader(p)
		var runs [4][]byte
		off := colHeaderLen
		for c := range l {
			runs[c] = p[off : off+l[c]]
			off += l[c]
		}
		segs = append(segs, runs)
	}
	return segs, nil
}

// RunCoder is the writer's per-run coder.
type RunCoder struct{ cs compScratch }

// StoreRun returns how many bytes column c's run takes in a compressed v4
// segment written at level.
func (rc *RunCoder) StoreRun(c int, run []byte, level int) (int, error) {
	st, err := rc.cs.storeRun(c, run, level)
	return len(st), err
}
