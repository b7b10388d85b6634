package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen writes a valid header followed by arbitrary bytes and opens
// the result. Open must never panic. After a successful Open the file
// must be exactly the header plus the newline-terminated valid records
// Open accepted — the longest such prefix of the input — and the known
// map must be their replay. Appending a fresh row and reopening must
// keep every previously known row and the new one. The fuzzed (idx, sec)
// pair also checks that parseRecord inverts recordLine for every
// non-negative index and finite time.
func FuzzOpen(f *testing.F) {
	meta := MetaHash("TS", 1, 100, []float64{10})
	good := recordLine(0, 1.5) + recordLine(1, 2.25)
	full := recordLine(2, 3.125)
	for _, tail := range []string{
		"",
		good,
		good + "r,2,3.125,",       // cut on the CRC boundary
		good + "r,",               // record prefix only
		good + "r",                // not even a separator
		good + "r,2,",             // index landed, time did not
		good + full[:len(full)-1], // only the newline is missing
		good + full[:len(full)-1] + "\x00" + full, // the pre-fix merged line
		good + "\n" + full,                        // an empty line mid-file
		good + recordLine(0, 9),                   // a duplicate index, last wins
		"r,1,NaN,00000000\n",                      // a CRC mismatch
	} {
		f.Add([]byte(tail), 7, 0.5)
	}
	f.Fuzz(func(t *testing.T, tail []byte, idx int, sec float64) {
		if idx < 0 {
			idx = -(idx + 1)
		}
		if math.IsNaN(sec) || math.IsInf(sec, 0) {
			sec = 1
		}
		line := recordLine(idx, sec)
		if gi, gs, ok := parseRecord(line[:len(line)-1]); !ok || gi != idx || math.Float64bits(gs) != math.Float64bits(sec) {
			t.Fatalf("parseRecord(recordLine(%d, %v)) = (%d, %v, %v)", idx, sec, gi, gs, ok)
		}

		header := "dacj1 " + meta + "\n"
		input := append([]byte(header), tail...)
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, meta)
		if err != nil {
			t.Fatalf("Open rejected a file with a valid header: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, got) || !bytes.HasPrefix(got, []byte(header)) {
			t.Fatalf("after Open the file is %q, not a header-led prefix of the input %q", got, input)
		}
		want := make(map[int]float64)
		for rest := got[len(header):]; len(rest) > 0; {
			n := bytes.IndexByte(rest, '\n')
			if n < 0 {
				t.Fatalf("Open kept an unterminated record %q", rest)
			}
			i, s, ok := parseRecord(string(rest[:n]))
			if !ok {
				t.Fatalf("Open kept an invalid record %q", rest[:n])
			}
			want[i] = s
			rest = rest[n+1:]
		}
		if rest := input[len(got):]; len(rest) > 0 {
			if n := bytes.IndexByte(rest, '\n'); n >= 0 {
				if _, _, ok := parseRecord(string(rest[:n])); ok {
					t.Fatalf("Open truncated the valid record %q", rest[:n])
				}
			}
		}
		checkKnown(t, j, want)

		for {
			if _, dup := want[idx]; !dup {
				break
			}
			idx++
		}
		if err := j.Append(rows(float64(idx), sec)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		want[idx] = sec
		re, err := Open(path, meta)
		if err != nil {
			t.Fatalf("reopen after Append: %v", err)
		}
		defer re.Close()
		checkKnown(t, re, want)
	})
}

// checkKnown asserts j's known rows are exactly want, bit for bit.
func checkKnown(t *testing.T, j *Journal, want map[int]float64) {
	t.Helper()
	if j.Rows() != len(want) {
		t.Fatalf("Rows() = %d, want %d", j.Rows(), len(want))
	}
	for i, s := range want {
		if got, ok := j.Known(i); !ok || math.Float64bits(got) != math.Float64bits(s) {
			t.Fatalf("row %d = (%v, %v), want (%v, true)", i, got, ok, s)
		}
	}
}
