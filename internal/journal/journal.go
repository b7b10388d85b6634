// Package journal implements the append-only, CRC-guarded record of
// completed collect rows shared by the daemon's durable jobs
// (internal/serve) and the fleet coordinator's merged sweeps
// (internal/fleet). Each record is one (row index, time) pair; the
// sweep's job list is a pure function of its options, so the index alone
// identifies the row across daemon restarts and across workers. The
// header carries a hash of the sweep's parameters — opening a journal
// with different parameters fails instead of silently splicing rows from
// a different sweep into the training set.
package journal

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// magic heads every journal file, followed by the meta hash that binds
// the journal to one exact sweep.
const magic = "dacj1"

// Journal is an append-only record of completed collect rows, the
// durable half of core.CollectResumable (and, for sharded sweeps, the
// coordinator's merge target).
//
// The on-disk format is line-oriented text:
//
//	dacj1 <metaHash>\n
//	r,<index>,<timeSec>,<crc32>\n
//	...
//
// with timeSec in strconv 'g'/-1 form (round-trips exactly) and the CRC
// over the line's first three fields. A torn tail — the partial last line
// a SIGKILL can leave — fails its CRC or parse and is truncated away on
// open; every fully synced record before it survives.
//
// Records normally land in completion order. Compact rewrites the file
// in global row-index order with duplicates dropped — the canonical
// merged form a sharded sweep converges to regardless of worker count.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	meta  string
	known map[int]float64
	// records counts record lines physically in the file, duplicates
	// included; records-len(known) is what Compact will drop.
	records int
}

// MetaHash canonicalizes a sweep's identity into the hash the journal
// header stores: FNV-64a over the workload, seed, row count, and exact
// training sizes.
func MetaHash(workload string, seed int64, ntrain int, sizesMB []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d", workload, seed, ntrain)
	for _, s := range sizesMB {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(s, 'g', -1, 64))
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Open opens (or creates) the journal at path for the sweep identified
// by metaHash. Existing records are loaded into the known map; a corrupt
// or torn tail is truncated. A header naming a different sweep is an
// error.
func Open(path, metaHash string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, meta: metaHash, known: make(map[int]float64)}

	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() == 0 {
		if _, err := fmt.Fprintf(f, "%s %s\n", magic, metaHash); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}

	// Replay: header, then records until EOF or the first bad line.
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		f.Close()
		return nil, fmt.Errorf("journal %s: missing header", path)
	}
	header := sc.Text()
	want := magic + " " + metaHash
	if header != want {
		f.Close()
		return nil, fmt.Errorf("journal %s: header %q does not match this sweep (%q) — refusing to mix rows from a different collect", path, header, want)
	}
	goodBytes := int64(len(header) + 1)
	for sc.Scan() {
		line := sc.Text()
		idx, sec, ok := parseRecord(line)
		if !ok {
			break // torn or corrupt tail: truncate from here
		}
		j.known[idx] = sec
		j.records++
		goodBytes += int64(len(line) + 1)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if goodBytes != fi.Size() {
		if err := f.Truncate(goodBytes); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recordLine formats one record with its CRC, newline-terminated.
func recordLine(idx int, sec float64) string {
	body := "r," + strconv.Itoa(idx) + "," + strconv.FormatFloat(sec, 'g', -1, 64)
	return fmt.Sprintf("%s,%08x\n", body, crc32.ChecksumIEEE([]byte(body)))
}

// parseRecord decodes one "r,<idx>,<time>,<crc>" line, verifying the CRC.
func parseRecord(line string) (idx int, sec float64, ok bool) {
	body, crcHex, found := cutLast(line, ',')
	if !found || !strings.HasPrefix(body, "r,") {
		return 0, 0, false
	}
	crc, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || crc32.ChecksumIEEE([]byte(body)) != uint32(crc) {
		return 0, 0, false
	}
	fields := strings.Split(body, ",")
	if len(fields) != 3 {
		return 0, 0, false
	}
	idx, err = strconv.Atoi(fields[1])
	if err != nil || idx < 0 {
		return 0, 0, false
	}
	sec, err = strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return 0, 0, false
	}
	return idx, sec, true
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s string, sep byte) (before, after string, found bool) {
	if i := strings.LastIndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// Known reports row idx's journaled time — core.RowHooks.Known's
// shape.
func (j *Journal) Known(idx int) (float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	sec, ok := j.known[idx]
	return sec, ok
}

// Rows returns the number of distinct journaled rows.
func (j *Journal) Rows() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.known)
}

// Append journals a batch of completed rows and syncs the file — the
// checkpoint. Safe for concurrent use from collect workers and the
// coordinator's merge path; rows are durable once Append returns.
func (j *Journal) Append(rows []core.RowTime) error {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(recordLine(r.Index, r.TimeSec))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.WriteString(b.String()); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	for _, r := range rows {
		j.known[r.Index] = r.TimeSec
	}
	j.records += len(rows)
	return nil
}

// Compact rewrites the journal as its canonical merged form: the header
// followed by exactly one record per known row in global row-index
// order. Duplicate records — a zombie worker's chunk that was also
// re-executed after its lease expired, or a row journaled twice across a
// resume boundary — are dropped (last write wins, matching replay
// semantics). The rewrite goes through a temp file, fsync, and an atomic
// rename, so a crash mid-compaction leaves either the old or the new
// file, both valid; the compacted file keeps the torn-tail truncation
// contract of any other journal. Returns the number of dropped records.
func (j *Journal) Compact() (dropped int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()

	idxs := make([]int, 0, len(j.known))
	for idx := range j.known {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)

	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact*")
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(tmp)
	fmt.Fprintf(w, "%s %s\n", magic, j.meta)
	for _, idx := range idxs {
		w.WriteString(recordLine(idx, j.known[idx]))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	// The old descriptor points at the unlinked inode; reopen the
	// compacted file for any further appends.
	j.f.Close()
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	j.f = f
	dropped = j.records - len(idxs)
	j.records = len(idxs)
	return dropped, nil
}

// Close closes the underlying file. The journal is not usable afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
