package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

// referenceDecode is the reflective /infer decode the codec must agree
// with: encoding/json with unknown fields refused and nothing but
// whitespace after the value.
func referenceDecode(b []byte) ([]float64, error) {
	var req InferRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		var extra json.RawMessage
		if err = dec.Decode(&extra); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return req.Input, err
}

// FuzzInferCodec checks the /infer decode against encoding/json on
// bodies within maxInferBody: both accept or both reject (a reject is a
// 400), an accepted body gives bit-identical floats, and the schema
// scanner on its own never accepts what encoding/json rejects.
func FuzzInferCodec(f *testing.F) {
	const n = 784
	rng := rand.New(rand.NewSource(1))
	for _, vals := range [][]float64{
		normals(rng, n),
		normals(rng, 7),
		{5e-324, 2.2250738585072009e-308, -4.9e-324},
		{0, math.Copysign(0, -1), 1, -1},
		{1e300, -1e300, 1e-300, -1e-300},
		{0, 3, 42, -7, 1 << 53, 123456789},
	} {
		b, err := json.Marshal(InferRequest{Input: vals})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		" \t\n{ \"input\" :\r[ 1 , 2.5e-3 ,-0 ] }\n ",
		`{"input":null}`,
		`null`,
		`{"input":[1],"input":[2]}`,
		`{"INPUT":[1]}`,
		`{"Input":[1]}`,
		`{"\u0069nput":[1]}`,
		`{"input":[1e400]}`,
		`{"input":[01]}`,
		`{"input":[1.]}`,
		`{"input":[.5]}`,
		`{"input":[1e]}`,
		`{"input":[]}`,
		`{"input":[1,]}`,
		`{"input":[1]} {}`,
		`{"input":[1],"x":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if int64(len(body)) > maxInferBody(n) {
			t.Skip()
		}
		want, wantErr := referenceDecode(body)
		got, err := decodeInfer(body, n)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: codec error %v, encoding/json error %v", body, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("body %q: codec error %q, encoding/json error %q", body, err, wantErr)
			}
			if _, ok := scanInfer(body, n); ok {
				t.Fatalf("body %q: scanner accepts what encoding/json rejects: %v", body, wantErr)
			}
			return
		}
		sameBits(t, body, got, want)
	})
}

func normals(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func sameBits(t *testing.T, body []byte, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("body %q: %d floats, encoding/json %d", body, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("body %q: element %d = %v, encoding/json %v", body, i, got[i], want[i])
		}
	}
}

// TestScanInferTakesCanonicalBodies pins that the canonical bodies
// json.Marshal writes go through the scanner, not the fall-through.
func TestScanInferTakesCanonicalBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, vals := range [][]float64{normals(rng, 784), {5e-324, -1e300, 1e21, 1e-7, math.Copysign(0, -1), 17}} {
		body, _ := json.Marshal(InferRequest{Input: vals})
		got, ok := scanInfer(body, len(vals))
		if !ok {
			t.Fatalf("scanner falls through on canonical body %.60q…", body)
		}
		sameBits(t, body[:40], got, vals)
	}
}

// TestInferReplyMatchesEncoder pins the hand-written reply byte for byte
// against json.Encoder, trailing newline included, over random finite
// responses whose floats cross both of encoding/json's format switches.
func TestInferReplyMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Intn(2001) - 1000)
		case 3:
			return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal
		}
		v := math.Pow(10, rng.Float64()*60-30) * (rng.Float64() + 0.5)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	edges := []float64{1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 1e-7, 1e-10, 1e-100, math.MaxFloat64, 5e-324}
	for k := 0; k < 2000; k++ {
		r := InferResponse{
			RequestID: rng.Int63(),
			Class:     rng.Intn(100) - 1,
			BatchSize: rng.Intn(65),
			BatchSeq:  rng.Int63n(1 << 40),
			QueueMs:   float(),
			LatencyMs: float(),
		}
		switch k {
		case 0: // nil logits encode as null
		case 1:
			r.Logits = []float64{}
		case 2:
			r.Logits = edges
		default:
			for range rng.Intn(12) {
				r.Logits = append(r.Logits, float())
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		got, err := appendInferResponse(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reply %s\nencoding/json %s", got, want.Bytes())
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []InferResponse{{Logits: []float64{1, bad}}, {QueueMs: bad}, {LatencyMs: bad}} {
			if _, err := appendInferResponse(nil, &r); err == nil {
				t.Fatalf("%+v encoded without an error", r)
			}
		}
	}
}

// BenchmarkInferDecode compares the schema codec with encoding/json on
// one MLP-S body.
func BenchmarkInferDecode(b *testing.B) {
	body, _ := json.Marshal(InferRequest{Input: normals(rand.New(rand.NewSource(4)), 784)})
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := decodeInfer(body, 784); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := referenceDecode(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
