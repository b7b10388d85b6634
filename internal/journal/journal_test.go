package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func rows(pairs ...float64) []core.RowTime {
	out := make([]core.RowTime, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, core.RowTime{Index: int(pairs[i]), TimeSec: pairs[i+1]})
	}
	return out
}

// Compact must rewrite the file in global row-index order, drop
// duplicate records, and leave a journal that reopens to the same known
// map and accepts further appends.
func TestCompactCanonicalOrderAndDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	meta := MetaHash("TS", 1, 100, []float64{10})
	j, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrival (two workers racing) plus a duplicate row 3:
	// the requeued chunk re-executed after a lease expiry.
	if err := j.Append(rows(3, 3.25, 7, 7.5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rows(1, 1.125, 3, 3.25)); err != nil {
		t.Fatal(err)
	}
	dropped, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the duplicate row 3)", dropped)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "dacj1 " + meta + "\n" + recordLine(1, 1.125) + recordLine(3, 3.25) + recordLine(7, 7.5)
	if string(b) != want {
		t.Fatalf("compacted file:\n%q\nwant:\n%q", b, want)
	}

	// The compacted journal still appends.
	if err := j.Append(rows(9, 9.75)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Rows() != 4 {
		t.Fatalf("reopened rows = %d, want 4", re.Rows())
	}
	for _, c := range []struct {
		idx int
		sec float64
	}{{1, 1.125}, {3, 3.25}, {7, 7.5}, {9, 9.75}} {
		if sec, ok := re.Known(c.idx); !ok || sec != c.sec {
			t.Fatalf("row %d = (%v,%v), want (%v,true)", c.idx, sec, ok, c.sec)
		}
	}
}

// A second Compact with nothing to drop is a no-op rewrite.
func TestCompactIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	meta := MetaHash("WC", 2, 10, []float64{5, 6})
	j, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(rows(0, 2.5, 1, 3.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("second compact dropped %d, want 0", dropped)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("compact not idempotent:\n%q\nvs\n%q", first, second)
	}
}

// A torn tail on a *compacted* file — the partial last line a SIGKILL
// can leave — must truncate away on open, keeping every whole record
// before it. The compacted layout is index-sorted, so the surviving
// prefix is the lowest indices.
func TestCompactedTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	meta := MetaHash("TS", 1, 50, []float64{10})
	j, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rows(4, 4.5, 2, 2.5, 0, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last record's line.
	lines := strings.SplitAfter(string(b), "\n")
	last := lines[len(lines)-2] // final "" after trailing \n is -1
	torn := string(b[:len(b)-len(last)]) + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Rows() != 2 {
		t.Fatalf("rows after torn tail = %d, want 2", re.Rows())
	}
	for _, idx := range []int{0, 2} {
		if _, ok := re.Known(idx); !ok {
			t.Fatalf("row %d lost", idx)
		}
	}
	if _, ok := re.Known(4); ok {
		t.Fatal("torn row 4 survived")
	}
	// The truncated file must be appendable again without corruption.
	if err := re.Append(rows(4, 4.5)); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Rows() != 3 {
		t.Fatalf("rows after re-append = %d, want 3", re2.Rows())
	}
}

// Opening with a different meta hash must refuse.
func TestCompactKeepsMetaBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	meta := MetaHash("TS", 1, 100, []float64{10})
	j, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rows(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, MetaHash("TS", 2, 100, []float64{10})); err == nil {
		t.Fatal("compacted journal opened under a different sweep's meta hash")
	}
}

// A creation torn before its header was synced leaves a prefix of the
// header, possibly all of it but the newline. Open must write the header
// fresh, and a row appended afterwards must survive a reopen.
func TestOpenRepairsTornHeader(t *testing.T) {
	meta := MetaHash("TS", 1, 100, []float64{10})
	header := "dacj1 " + meta + "\n"
	for cut := 0; cut < len(header); cut++ {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, []byte(header[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, meta)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := j.Append(rows(0, 1.5)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := header + recordLine(0, 1.5); string(b) != want {
			t.Fatalf("cut %d: file %q, want %q", cut, b, want)
		}
		re, err := Open(path, meta)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if re.Rows() != 1 {
			t.Fatalf("cut %d: %d rows after reopen, want 1", cut, re.Rows())
		}
		re.Close()
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	meta := MetaHash("TS", 1, 100, []float64{10, 20.5})
	j, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	rows := []core.RowTime{
		{Index: 0, TimeSec: 12.25},
		{Index: 3, TimeSec: 0.0000123456789012345},
		{Index: 7, TimeSec: 99999.125},
	}
	if err := j.Append(rows); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]core.RowTime{{Index: 1, TimeSec: 7.5}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	re, err := Open(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Rows() != 4 {
		t.Fatalf("reopened journal has %d rows, want 4", re.Rows())
	}
	for _, r := range rows {
		sec, ok := re.Known(r.Index)
		if !ok || sec != r.TimeSec {
			t.Fatalf("row %d: got (%v,%v), want (%v,true) — times must round-trip exactly", r.Index, sec, ok, r.TimeSec)
		}
	}
	if _, ok := re.Known(2); ok {
		t.Fatal("row 2 was never journaled")
	}
}

func TestJournalRejectsForeignSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, err := Open(path, MetaHash("TS", 1, 100, []float64{10}))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Same file, different sweep parameters: must refuse, not splice.
	for _, meta := range []string{
		MetaHash("TS", 2, 100, []float64{10}), // different seed
		MetaHash("TS", 1, 101, []float64{10}), // different ntrain
		MetaHash("TS", 1, 100, []float64{11}), // different sizes
		MetaHash("WC", 1, 100, []float64{10}), // different workload
	} {
		if _, err := Open(path, meta); err == nil {
			t.Fatalf("journal for %s opened against a foreign sweep", meta)
		}
	}
}

// TestJournalTornTail pins SIGKILL recovery: a partial trailing line —
// whatever a dying process managed to flush — is truncated on open, and
// every record before it survives. Appending afterwards produces a clean
// journal again.
func TestJournalTornTail(t *testing.T) {
	meta := MetaHash("TS", 1, 100, []float64{10})
	for _, tail := range []string{
		"r,9",                     // torn mid-index
		"r,9,3.25",                // torn before the CRC
		"r,9,3.25,00",             // torn mid-CRC
		"r,9,3.25,deadbeef",       // complete line, wrong CRC
		"r,9,3.2X5,0a0a0a0a",      // unparseable time
		"garbage line",            // not a record at all
		strings.Repeat("x", 4096), // long junk
	} {
		path := filepath.Join(t.TempDir(), "j.journal")
		j, err := Open(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append([]core.RowTime{{Index: 4, TimeSec: 2.5}, {Index: 5, TimeSec: 3.5}}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()

		re, err := Open(path, meta)
		if err != nil {
			t.Fatalf("tail %q: reopen failed: %v", tail, err)
		}
		if re.Rows() != 2 {
			t.Fatalf("tail %q: %d rows survived, want 2", tail, re.Rows())
		}
		if sec, ok := re.Known(5); !ok || sec != 3.5 {
			t.Fatalf("tail %q: row 5 lost", tail)
		}
		if _, ok := re.Known(9); ok {
			t.Fatalf("tail %q: torn row 9 was accepted", tail)
		}
		// The journal must be usable (and clean) after truncation.
		if err := re.Append([]core.RowTime{{Index: 9, TimeSec: 4.5}}); err != nil {
			t.Fatal(err)
		}
		re.Close()
		re2, err := Open(path, meta)
		if err != nil {
			t.Fatalf("tail %q: reopen after repair failed: %v", tail, err)
		}
		if re2.Rows() != 3 {
			t.Fatalf("tail %q: %d rows after repair, want 3", tail, re2.Rows())
		}
		re2.Close()
	}
}

// TestJournalTornTailBoundaryCuts pins the nastiest torn-tail shapes: a
// tail cut exactly on the CRC boundary (the record's three data fields
// and the trailing comma made it to disk, the checksum did not), a final
// record that is record-prefix-only ("r," or a bare "r"), and a complete,
// CRC-valid record whose newline never landed. All must truncate
// cleanly, and resuming must rebuild a journal byte-identical to one that
// was never torn.
func TestJournalTornTailBoundaryCuts(t *testing.T) {
	meta := MetaHash("TS", 1, 100, []float64{10})
	good := []core.RowTime{{Index: 0, TimeSec: 1.5}, {Index: 1, TimeSec: 2.25}}
	missing := core.RowTime{Index: 2, TimeSec: 3.125}

	// Reference: the journal a never-interrupted writer produces.
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	refJ, err := Open(refPath, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := refJ.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := refJ.Append([]core.RowTime{missing}); err != nil {
		t.Fatal(err)
	}
	refJ.Close()
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, tail := range []string{
		"r,2,3.125,",         // cut exactly on the CRC boundary
		"r,",                 // final record is prefix-only
		"r",                  // not even the field separator made it
		"r,2,",               // index landed, time did not
		"r,2,3.125,e111fc7c", // the whole CRC-valid record landed, its newline did not
	} {
		path := filepath.Join(t.TempDir(), "j.journal")
		j, err := Open(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(good); err != nil {
			t.Fatal(err)
		}
		j.Close()
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()

		re, err := Open(path, meta)
		if err != nil {
			t.Fatalf("tail %q: reopen failed: %v", tail, err)
		}
		if re.Rows() != len(good) {
			t.Fatalf("tail %q: %d rows survived, want %d", tail, re.Rows(), len(good))
		}
		if _, ok := re.Known(missing.Index); ok {
			t.Fatalf("tail %q: the torn record was accepted", tail)
		}
		// The truncation must remove the torn bytes exactly: the file is
		// the pristine pre-crash journal again.
		afterOpen, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(afterOpen, pristine) {
			t.Fatalf("tail %q: truncation left %q, want the pristine journal %q", tail, afterOpen, pristine)
		}
		// Re-appending the lost row must reproduce the reference journal
		// byte for byte — resume is indistinguishable from never crashing.
		if err := re.Append([]core.RowTime{missing}); err != nil {
			t.Fatal(err)
		}
		re.Close()
		final, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(final, ref) {
			t.Fatalf("tail %q: resumed journal differs from the uninterrupted one:\n%q\n%q", tail, final, ref)
		}
	}
}
