package audit

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeEvent hardens the audit-event decoder against arbitrary
// persisted bytes: no panics, successful decodes re-encode canonically, and
// the in-place decoder agrees with the bytes.Reader reference decoder on
// every input — both accept it and decode equal events, or both reject it
// with the same error.
func FuzzDecodeEvent(f *testing.F) {
	f.Add(encodeEvent(Event{
		Seq: 3, Timestamp: time.Unix(0, 42).UTC(), Actor: "dr-a",
		Action: ActionRead, Record: "r1", Version: 2,
		Outcome: OutcomeAllowed, Detail: "d", MAC: []byte{1, 2, 3},
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add(encodeEvent(Event{Trace: "0123456789abcdef"})[:40])
	f.Add(encodeEvent(Event{})[:10]) // cut at a field boundary: a bare EOF
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEvent(data)
		ref, refErr := refDecodeEvent(data)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("decoders disagree: %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(e, ref) {
			t.Fatalf("decoded %+v, reference %+v", e, ref)
		}
		if !bytes.Equal(encodeEvent(e), data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}
