package serve

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeJournalFile seeds a journal directory with raw content.
func writeJournalFile(t *testing.T, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, JournalName)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const journalTwoTicks = `{"k":"ev","e":{"seq":1,"kind":"offer","offer":{"name":"a","home_dc":0}}}
{"k":"tick"}
{"k":"ev","e":{"seq":2,"kind":"telemetry","telemetry":{"name":"a","rps":5}}}
{"k":"tick","t":1}
`

// TestJournalRoundTrip pins the append/reopen cycle: entries written
// through Append come back verbatim with a matching digest.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, prior, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal has %d entries", len(prior))
	}
	evs := []Event{offerEv(1, "a", 0), telemEv(2, "a", 5)}
	for i := range evs {
		if err := j.Append(entry{Kind: "ev", Event: &evs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(entry{Kind: "tick", Tick: 0}); err != nil {
		t.Fatal(err)
	}
	wantDigest := j.Digest()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, prior, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(prior) != 3 {
		t.Fatalf("reopened journal has %d entries, want 3", len(prior))
	}
	if prior[0].Event.Offer.Name != "a" || prior[1].Event.Telemetry.RPS != 5 {
		t.Fatalf("entries did not round-trip: %+v", prior)
	}
	if j2.Digest() != wantDigest {
		t.Fatalf("digest %016x after reopen, want %016x", j2.Digest(), wantDigest)
	}
}

// TestJournalTornTailTruncated pins crash hygiene case 1: a final line
// the dying process never finished is dropped and physically truncated,
// so the next run appends from a clean boundary.
func TestJournalTornTailTruncated(t *testing.T) {
	for _, torn := range []string{
		`{"k":"ev","e":{"seq":9,"ki`, // no newline, cut mid-JSON
		"{\"k\":\"ev\",broken}\n",    // newline landed, JSON did not
	} {
		dir := t.TempDir()
		path := writeJournalFile(t, dir, journalTwoTicks+torn)
		j, prior, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("torn tail %q: %v", torn, err)
		}
		j.Close()
		if len(prior) != 4 {
			t.Fatalf("torn tail %q: %d entries, want 4", torn, len(prior))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != journalTwoTicks {
			t.Fatalf("torn tail %q not truncated away; file holds %q", torn, data)
		}
	}
}

// TestJournalTrailingEventsTruncated pins crash hygiene case 2: events
// flushed after the last tick barrier never executed — they are still
// "in the intake queue" per the 202 contract — so a restore drops them
// rather than corrupt the next tick's canonical batch.
func TestJournalTrailingEventsTruncated(t *testing.T) {
	dir := t.TempDir()
	trailing := `{"k":"ev","e":{"seq":3,"kind":"offer","offer":{"name":"b","home_dc":1}}}` + "\n"
	path := writeJournalFile(t, dir, journalTwoTicks+trailing)
	j, prior, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(prior) != 4 {
		t.Fatalf("%d entries, want 4 (trailing event dropped)", len(prior))
	}
	if prior[len(prior)-1].Kind != "tick" {
		t.Fatal("journal prefix does not end at a tick barrier")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != journalTwoTicks {
		t.Fatalf("trailing event not truncated; file holds %q", data)
	}
}

// TestJournalRejectsMidFileCorruption distinguishes a torn tail from
// real corruption: a malformed line with valid lines after it means the
// file is damaged, and pretending otherwise would replay wrong history.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	writeJournalFile(t, dir, `{"k":"ev",corrupt}`+"\n"+journalTwoTicks)
	if _, _, err := OpenJournal(dir); err == nil {
		t.Fatal("mid-file corruption accepted as a torn tail")
	}
}

// FuzzOpenJournal feeds arbitrary bytes to the restore path as a journal
// file. OpenJournal must never panic. When it succeeds, the entries it
// returns end at a tick barrier (or are empty), the file has been cut to
// exactly the bytes of those entries with Digest the FNV-1a of those
// bytes, and opening the journal again returns the same entries and
// digest.
func FuzzOpenJournal(f *testing.F) {
	f.Add([]byte(journalTwoTicks))
	f.Add([]byte(journalTwoTicks + `{"k":"ev","e":{"seq":9,"ki`))
	f.Add([]byte(journalTwoTicks + "{\"k\":\"ev\",broken}\n"))
	f.Add([]byte(journalTwoTicks + `{"k":"ev","e":{"seq":3,"kind":"offer","offer":{"name":"b","home_dc":1}}}` + "\n"))
	f.Add([]byte(`{"k":"ev",corrupt}` + "\n" + journalTwoTicks))
	f.Add([]byte("null\n{\"K\":\"tick\"}\n\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := writeJournalFile(t, dir, string(data))
		j, prior, err := OpenJournal(dir)
		if err != nil {
			return // refused cleanly
		}
		digest := j.Digest()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(prior); n > 0 && prior[n-1].Kind != "tick" {
			t.Fatalf("entries end at %q, not a tick barrier", prior[n-1].Kind)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("file %q is not a prefix of the input %q", kept, data)
		}
		if n := bytes.Count(kept, []byte("\n")); n != len(prior) {
			t.Fatalf("file keeps %d lines for %d entries", n, len(prior))
		}
		h := fnv.New64a()
		h.Write(kept)
		if digest != h.Sum64() {
			t.Fatalf("digest %016x, FNV-1a of the kept bytes %016x", digest, h.Sum64())
		}

		j2, again, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("reopening the cut journal: %v", err)
		}
		defer j2.Close()
		if (len(again) > 0 || len(prior) > 0) && !reflect.DeepEqual(again, prior) {
			t.Fatalf("reopen returned %+v, first open %+v", again, prior)
		}
		if j2.Digest() != digest {
			t.Fatalf("reopen digest %016x, first open %016x", j2.Digest(), digest)
		}
	})
}

// TestCheckpointRoundTripAndCompatibility covers the checkpoint file:
// atomic write, read-back, and the compatibility rule (TickWorkers is
// recorded but deliberately not part of the rule).
func TestCheckpointRoundTripAndCompatibility(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	cp := Checkpoint{
		Scenario: "serve-base", Seed: 9, RoundTicks: 10, TickWorkers: 4,
		Tick: 18, Entries: 40, Digest: 123, LogLines: 18, LogDigest: 456,
	}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if got != cp {
		t.Fatalf("checkpoint round-trip: got %+v want %+v", got, cp)
	}

	if err := got.Compatible("serve-base", 9, 10); err != nil {
		t.Fatalf("compatible config refused: %v", err)
	}
	if err := got.Compatible("other", 9, 10); err == nil {
		t.Fatal("scenario mismatch accepted")
	}
	if err := got.Compatible("serve-base", 8, 10); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if err := got.Compatible("serve-base", 9, 5); err == nil {
		t.Fatal("round-period mismatch accepted")
	}
}
