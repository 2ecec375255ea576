package obs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"medvault/internal/faultfs"
	"medvault/internal/frame"
)

func TestFlightRingBoundsAndOrder(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(FlightEvent{Kind: "put", Detail: string(rune('a' + i))})
	}
	if f.Len() != 4 {
		t.Fatalf("ring retains %d, want 4", f.Len())
	}
	evs := f.Snapshot(FlightFilter{})
	if len(evs) != 4 {
		t.Fatalf("snapshot returned %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(10 - i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (newest first)", i, ev.Seq, want)
		}
	}
}

func TestFlightFilter(t *testing.T) {
	f := NewFlight(16)
	f.Record(FlightEvent{Kind: "put", Trace: "aaaa", Record: "r1"})
	f.Record(FlightEvent{Kind: "get", Trace: "bbbb", Record: "r1"})
	f.Record(FlightEvent{Kind: "repl.apply", Trace: "aaaa", Record: "r2"})

	if got := f.Snapshot(FlightFilter{Trace: "aaaa"}); len(got) != 2 {
		t.Fatalf("trace filter: got %d, want 2", len(got))
	}
	if got := f.Snapshot(FlightFilter{Kind: "REPL"}); len(got) != 1 || got[0].Kind != "repl.apply" {
		t.Fatalf("kind filter (case-folded substring): got %+v", got)
	}
	if got := f.Snapshot(FlightFilter{Record: "r1", Limit: 1}); len(got) != 1 || got[0].Kind != "get" {
		t.Fatalf("record filter with limit: got %+v", got)
	}
}

func TestFlightEventCodecRoundTrip(t *testing.T) {
	in := FlightEvent{
		Seq: 42, Time: time.Unix(0, 1700000000123456789),
		Kind: "put", Record: HashRecordID("rec-1"), Trace: "0123456789abcdef",
		Outcome: "ok", Dur: 1500 * time.Microsecond, Shard: "3", Detail: "v2",
	}
	out, ok := decodeFlightEvent(encodeFlightEvent(in))
	if !ok {
		t.Fatal("decode failed")
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestFlightSinkPersistAndDecode(t *testing.T) {
	mem := faultfs.NewMem()
	f := NewFlight(64)
	sink, err := OpenFlightSink(mem, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	var last FlightEvent
	for i := 0; i < 5; i++ {
		last = f.Record(FlightEvent{Kind: "put", Record: HashRecordID("rec"), Outcome: "ok"})
		sink.Append(last)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink latched an error: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadFlightDir(mem, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 || evs[4].Seq != last.Seq || evs[4].Record != last.Record {
		t.Fatalf("decoded %d events, last=%+v", len(evs), evs[len(evs)-1])
	}
}

// TestFlightTornTail is the heart of the crash contract: after a power cut
// that keeps only part of the unsynced segment tail, decoding must yield a
// clean prefix of the recorded events and silently discard the torn frame.
func TestFlightTornTail(t *testing.T) {
	mem := faultfs.NewMem()
	f := NewFlight(64)
	sink, err := OpenFlightSink(mem, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sink.Append(f.Record(FlightEvent{Kind: "put", Outcome: "ok"}))
	}
	img := mem.CrashImage(faultfs.KeepHalf)
	evs, err := ReadFlightDir(img, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) >= 8 {
		t.Fatalf("KeepHalf survived all %d events; expected a truncated prefix", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: surviving events are not a prefix", i, ev.Seq)
		}
	}
}

func TestFlightSegmentRotationAndPruning(t *testing.T) {
	mem := faultfs.NewMem()
	for boot := 0; boot < flightKeepSegments+3; boot++ {
		sink, err := OpenFlightSink(mem, "d/flight")
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		sink.Append(FlightEvent{Seq: uint64(boot), Kind: "open"})
		sink.Close()
	}
	nums, err := listFlightSegments(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) > flightKeepSegments {
		t.Fatalf("%d segments retained, cap is %d", len(nums), flightKeepSegments)
	}
	if nums[len(nums)-1] != uint64(flightKeepSegments+3) {
		t.Fatalf("newest segment is %d, want %d", nums[len(nums)-1], flightKeepSegments+3)
	}
}

// TestFlightSinkDiskBoundWithinOneBoot: a single long-running sink rotates
// by size and prunes as it goes, so however many events one boot appends,
// the directory stays within keep × cap and the newest events decode.
func TestFlightSinkDiskBoundWithinOneBoot(t *testing.T) {
	mem := faultfs.NewMem()
	sink, err := OpenFlightSink(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlight(16)
	detail := strings.Repeat("x", flightMaxStr)
	const bound = flightKeepSegments * flightSegmentBytes
	var last FlightEvent
	written := 0
	for written < 2*bound {
		last = f.Record(FlightEvent{Kind: "put", Outcome: "ok", Detail: detail})
		sink.Append(last)
		written += len(encodeFlightEvent(last))
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink latched an error: %v", err)
	}
	total := 0
	for name, data := range mem.Dump() {
		if strings.HasPrefix(name, "d/flight/") {
			total += len(data)
			if len(data) > flightSegmentBytes {
				t.Errorf("%s holds %d bytes, cap is %d", name, len(data), flightSegmentBytes)
			}
		}
	}
	if total > bound {
		t.Fatalf("flight dir holds %d bytes after %d written, bound is %d", total, written, bound)
	}
	nums, err := listFlightSegments(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) != flightKeepSegments || nums[0] == 1 {
		t.Fatalf("segments %v: want the newest %d of a rotated run", nums, flightKeepSegments)
	}
	sink.Close()
	evs, err := ReadFlightDir(mem, "d/flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[len(evs)-1].Seq != last.Seq {
		t.Fatalf("newest event did not survive rotation")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained events are not contiguous at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestFlightEventsArePHIFree(t *testing.T) {
	body := "PATIENT-BODY-SENTINEL"
	ev := FlightEvent{Kind: "put", Record: HashRecordID("rec-" + body), Outcome: "ok"}
	enc := string(encodeFlightEvent(ev))
	if strings.Contains(enc, body) {
		t.Fatal("encoded event leaks the record ID")
	}
	if HashRecordID("a") == HashRecordID("b") || HashRecordID("") != "" {
		t.Fatal("HashRecordID misbehaves")
	}
}

// FuzzFlightSegment proves the offline decoder is total: arbitrary bytes —
// including mutated valid segments — never panic it.
func FuzzFlightSegment(f *testing.F) {
	var seed []byte
	fl := NewFlight(8)
	for i := 0; i < 3; i++ {
		ev := fl.Record(FlightEvent{Kind: "put", Record: HashRecordID("r"), Outcome: "ok", Trace: "0123456789abcdef"})
		seed = frame.Append(seed, ev.Seq, encodeFlightEvent(ev))
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, tail := DecodeFlightSegment(data)
		if tail < 0 || tail > len(data) {
			t.Fatalf("tail %d out of range for %d bytes", tail, len(data))
		}
		for _, ev := range evs {
			if len(ev.Kind) > flightMaxStr || len(ev.Detail) > flightMaxStr {
				t.Fatal("decoded event exceeds field caps")
			}
		}
	})
}

// TestFlightSinkLatchCounted: a write fault latches the sink off, and the
// latch shows on medvault_flight_sink_errors_total exactly once — the
// events dropped after it do not count again.
func TestFlightSinkLatchCounted(t *testing.T) {
	failWrites := false
	fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op) *faultfs.Fault {
		if failWrites && op.Kind == faultfs.OpWrite && strings.HasPrefix(op.Path, "vault/flight/") {
			return &faultfs.Fault{Err: faultfs.ErrNoSpace}
		}
		return nil
	})
	sink, err := OpenFlightSink(fsys, "vault/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	before := metFlightSinkErrors.Value()
	sink.Append(FlightEvent{Seq: 1, Kind: "put"})
	if sink.Err() != nil || metFlightSinkErrors.Value() != before {
		t.Fatalf("healthy append: err %v, counter %v → %v", sink.Err(), before, metFlightSinkErrors.Value())
	}
	failWrites = true
	for i := 0; i < 3; i++ {
		sink.Append(FlightEvent{Seq: uint64(2 + i), Kind: "put"})
	}
	if !errors.Is(sink.Err(), faultfs.ErrNoSpace) {
		t.Fatalf("sink error %v, want the injected fault", sink.Err())
	}
	got := Default.Counter("medvault_flight_sink_errors_total", "").Value()
	if got != before+1 {
		t.Fatalf("medvault_flight_sink_errors_total = %v, want %v", got, before+1)
	}
	var prom strings.Builder
	if err := Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "medvault_flight_sink_errors_total") {
		t.Error("/metrics exposition lacks medvault_flight_sink_errors_total")
	}
}
