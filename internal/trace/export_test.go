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

// StoredRun is one stored stream: a segment payload or column run as the
// file holds it, and the raw length it decodes to.
type StoredRun struct {
	Stored []byte
	RawLen int
}

// Coded reports whether the run is a DEFLATE stream rather than a literal
// copy.
func (r StoredRun) Coded() bool { return len(r.Stored) < r.RawLen }

// StoredPayloads returns every segment's stored payload, in file order.
func StoredPayloads(file []byte) ([]StoredRun, error) {
	ix, err := ReadIndex(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		return nil, err
	}
	out := make([]StoredRun, 0, len(ix.Segments))
	for _, si := range ix.Segments {
		start := si.Offset + int64(si.frameHeaderLen(ix.Version))
		out = append(out, StoredRun{file[start : start+int64(si.PayloadLen)], si.RawLen})
	}
	return out, nil
}

// StoredColumnRuns returns the column runs of every compressed segment of a
// v4 file, as stored, in file order.
func StoredColumnRuns(file []byte) ([][4]StoredRun, error) {
	ix, err := ReadIndex(bytes.NewReader(file), int64(len(file)))
	if err != nil {
		return nil, err
	}
	var segs [][4]StoredRun
	for _, si := range ix.Segments {
		if !si.Compressed() {
			continue
		}
		start := si.Offset + int64(si.frameHeaderLen(ix.Version))
		p := file[start : start+int64(si.PayloadLen)]
		rawL, stoL, off, err := storedColHeaders(p, si)
		if err != nil {
			return nil, err
		}
		var runs [4]StoredRun
		for c := range runs {
			runs[c] = StoredRun{p[off : off+stoL[c]], rawL[c]}
			off += stoL[c]
		}
		segs = append(segs, runs)
	}
	return segs, nil
}

// RunInflater is the reader's per-run decoder.
type RunInflater struct{ sc segScratch }

// Inflate decodes the DEFLATE stream src into dst under the reader's rule —
// fill dst exactly — returning how many bytes landed in dst.
func (ri *RunInflater) Inflate(dst, src []byte) (int, error) { return ri.sc.inflateRun(dst, src) }

// RunCoder is the writer's per-run coder.
type RunCoder struct{ cs compScratch }

// StoreRun returns how many bytes column c's run takes in a compressed v4
// segment written at level.
func (rc *RunCoder) StoreRun(c int, run []byte, level int) (int, error) {
	st, err := rc.cs.storeRun(c, run, level)
	return len(st), err
}
