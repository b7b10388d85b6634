package workloads

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
)

// The paper's collecting component uses each program's input dataset
// generator (DG) to produce datasets of controlled sizes (§3.1). The
// simulator itself consumes only dataset *sizes*, but the generators below
// synthesize actual records deterministically so examples and tests can
// demonstrate (and verify) the bytes-per-unit scales the workloads declare.

// GenText writes approximately sizeBytes of whitespace-separated words with
// a Zipfian vocabulary (WordCount's input) and returns the bytes written.
func GenText(w io.Writer, sizeBytes int64, seed int64) (int64, error) {
	rng := rand.New(rand.NewSource(seed))
	bw := bufio.NewWriter(w)
	var written int64
	col := 0
	for written < sizeBytes {
		s := fmt.Sprintf("word%d", zipf(rng, 100000))
		k, err := bw.WriteString(s)
		written += int64(k)
		if err != nil {
			return written, err
		}
		col += k
		sep := byte(' ')
		if col > 80 {
			sep, col = '\n', 0
		}
		if err := bw.WriteByte(sep); err != nil {
			return written, err
		}
		written++
	}
	return written, bw.Flush()
}

// GenTeraRecords writes n TeraSort records (10-byte key, 88-byte payload,
// newline — the classic 100-byte year record rounded to 99 ASCII bytes)
// and returns the bytes written.
func GenTeraRecords(w io.Writer, n int, seed int64) (int64, error) {
	rng := rand.New(rand.NewSource(seed))
	bw := bufio.NewWriter(w)
	var written int64
	key := make([]byte, 10)
	payload := make([]byte, 88)
	for i := 0; i < n; i++ {
		for j := range key {
			key[j] = byte('A' + rng.Intn(26))
		}
		for j := range payload {
			payload[j] = byte('a' + (i+j)%26)
		}
		for _, chunk := range [][]byte{key, payload, {'\n'}} {
			k, err := bw.Write(chunk)
			written += int64(k)
			if err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}

// zipf draws from a crude Zipf-like distribution over [0, n): rank r with
// probability proportional to 1/(r+1).
func zipf(rng *rand.Rand, n int) int {
	u := rng.Float64()
	// Inverse CDF of the continuous approximation: harmonic mass.
	return int(float64(n) * (u * u * u))
}
