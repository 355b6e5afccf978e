package probe_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spasm/internal/probe"
	"spasm/internal/report"
)

// FuzzDecode feeds arbitrary bytes to the profile decoder, starting from
// a recorded profile, its truncations and its zero-epoch-length twin: it
// must never panic, and a profile it accepts must come back unchanged
// through Encode and Decode, whose re-encoding is byte-identical and as
// long as EncodedLen said.  An accepted profile must also render — the
// CSV and the JSON document spasmd serves, which must marshal.
func FuzzDecode(f *testing.F) {
	valid, err := os.ReadFile(filepath.Join("testdata", "ep_tiny_p4_target.sprf"))
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n < len(valid); n += 1 + len(valid)/32 {
		f.Add(valid[:n])
	}
	f.Add(valid)
	zero, err := probe.Decode(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	zero.EpochLen = 0
	var buf bytes.Buffer
	if _, err := zero.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := probe.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc, again bytes.Buffer
		n, err := p.Encode(&enc)
		if err != nil {
			t.Fatalf("re-encode of an accepted profile: %v", err)
		}
		if n != enc.Len() || n != p.EncodedLen() {
			t.Fatalf("Encode wrote %d bytes, reported %d; EncodedLen says %d", enc.Len(), n, p.EncodedLen())
		}
		back, err := probe.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of an accepted profile: %v", err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", back, p)
		}
		if _, err := back.Encode(&again); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("second encode differs from the first (err %v)", err)
		}
		report.ProfileCSV(p)
		if _, err := json.Marshal(report.ProfileJSON(p)); err != nil {
			t.Fatalf("JSON document of an accepted profile: %v", err)
		}
	})
}
