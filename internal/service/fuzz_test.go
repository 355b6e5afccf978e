package service

import (
	"encoding/json"
	"testing"
)

// FuzzRunRequest feeds arbitrary bodies through what POST /v1/runs does
// before it queues anything — strict decoding, conversion to a Spec,
// validation — which must never panic.  A spec that gets through must
// have a stable content address: hashing it again, or resubmitting the
// canonical echo a client is shown, names the same run.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"app":"fft","scale":"tiny","machine":"target","topology":"cube","p":4}`,
		`{"app":"uniform","scale":"small","seed":7,"machine":"logp","topology":"torus","p":1024,"port_mode":"per-class","workers":2}`,
		`{"app":"cholesky","machine":"clogp","protocol":"msi","p":8}`,
		`{"app":"fft","scale":"medium","machine":"ideal","p":256}`,
		`{"app":"mg","p":-3,"seed":-1,"workers":-2}`,
		`{"app":"is","p":4} {"p":8}`,
		`{"topolgy":"mesh"}`,
		`{}`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(body)
		if err != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil || spec.Validate() != nil {
			return
		}
		id := spec.Hash()
		if again := spec.Hash(); again != id {
			t.Fatalf("%+v hashes to %s, then %s", spec, id, again)
		}
		echo, err := json.Marshal(RequestFromSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeRunRequest(echo)
		if err != nil {
			t.Fatalf("the echo %s of an accepted request does not decode: %v", echo, err)
		}
		resubmitted, err := back.Spec()
		if err != nil {
			t.Fatalf("the echo %s of an accepted request is rejected: %v", echo, err)
		}
		if resubmitted.Hash() != id {
			t.Fatalf("the echo %s names %s, the request %s", echo, resubmitted.Hash(), id)
		}
	})
}
