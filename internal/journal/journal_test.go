package journal

import (
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
