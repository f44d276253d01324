package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestEnvelopeEncodingMatchesJSONMarshal pins the hand-assembled envelope
// writer to encoding/json's output for the envelope struct: any byte of
// drift would fork the on-disk format between store versions.
func TestEnvelopeEncodingMatchesJSONMarshal(t *testing.T) {
	// Payloads are whatever codec.Encode produces — json.Marshal output,
	// which is compact and HTML-escaped. The third one pins that: <, > and
	// & arrive pre-escaped, so appending the payload verbatim matches what
	// re-marshalling the RawMessage would emit.
	mustMarshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	payloads := [][]byte{
		mustMarshal(map[string]any{"a": 1, "b": []int{1, 2, 3}}),
		mustMarshal(nil),
		mustMarshal("x<y&z>A"),
	}
	kinds := []string{"sampling", "dse-sweep", "kind with spaces", `weird"kind\<&>`, "ünïcode"}
	key := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	for _, kind := range kinds {
		for _, payload := range payloads {
			sum := sha256.Sum256(payload)
			env := envelope{Schema: Schema, Kind: kind, Key: key,
				CodecVersion: 7, SHA256: hex.EncodeToString(sum[:]), Payload: payload}
			want, err := json.Marshal(&env)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			writeEnvelope(&buf, kind, key, 7, payload)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("kind %q: envelope drifts from json.Marshal:\n got %s\nwant %s", kind, buf.Bytes(), want)
			}
		}
	}
}

// TestPayloadHashMatches covers the no-alloc hash verifier.
func TestPayloadHashMatches(t *testing.T) {
	p := []byte(`{"x":1}`)
	sum := sha256.Sum256(p)
	good := hex.EncodeToString(sum[:])
	if !payloadHashMatches(p, good) {
		t.Error("correct hash rejected")
	}
	if payloadHashMatches(p, good[:40]) {
		t.Error("truncated hash accepted")
	}
	bad := "0" + good[1:]
	if good[0] != '0' && payloadHashMatches(p, bad) {
		t.Error("wrong hash accepted")
	}
	if payloadHashMatches([]byte(`{"x":2}`), good) {
		t.Error("wrong payload accepted")
	}
}

// fuzzKey is the key every FuzzParseEnvelope input is parsed against.
const fuzzKey = "5eed000000000000000000000000000000000000000000000000000000000000"

// FuzzParseEnvelope: parseEnvelope is the one gate every stored or fetched
// envelope passes (Load, Raw, Envelope, the peer tier). On any bytes it
// must not panic, must accept exactly when the schema, key and payload
// hash hold (checked here against an independent decode), and an accepted
// envelope must re-encode through writeEnvelope to bytes that parse back
// to the same envelope — byte-equal to encoding/json's form whenever the
// payload is in the canonical form codecs emit.
func FuzzParseEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		env, err := parseEnvelope(fuzzKey, raw)

		var ref struct {
			Schema  string          `json:"schema"`
			Key     string          `json:"key"`
			SHA256  string          `json:"sha256"`
			Payload json.RawMessage `json:"payload"`
		}
		want := json.Unmarshal(raw, &ref) == nil && ref.Schema == Schema && ref.Key == fuzzKey &&
			len(ref.Payload) > 0 && hexSHA256(ref.Payload) == ref.SHA256
		if accepted := err == nil; accepted != want {
			t.Fatalf("parseEnvelope accepted=%v (err %v), want %v", accepted, err, want)
		}
		if err != nil {
			return
		}

		var buf bytes.Buffer
		writeEnvelope(&buf, env.Kind, fuzzKey, env.CodecVersion, env.Payload)
		back, err := parseEnvelope(fuzzKey, buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v\n%s", err, buf.Bytes())
		}
		if back.Kind != env.Kind || back.CodecVersion != env.CodecVersion ||
			back.SHA256 != env.SHA256 || !bytes.Equal(back.Payload, env.Payload) {
			t.Fatalf("re-encoded envelope parses to %+v, want %+v", back, env)
		}
		if canon, _ := json.Marshal(env.Payload); bytes.Equal(canon, env.Payload) {
			std, err := json.Marshal(&env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), std) {
				t.Fatalf("writeEnvelope drifts from json.Marshal:\n got %s\nwant %s", buf.Bytes(), std)
			}
		}
	})
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
