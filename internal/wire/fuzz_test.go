package wire

import (
	"bytes"
	"testing"
)

// codecRoundTrip checks one decoder/encoder pair on arbitrary bytes:
// decoding must not panic, and a payload that decodes must re-encode to
// bytes that decode again and re-encode identically. Comparing encoded
// bytes rather than values keeps NaN floats comparable, and re-encoding
// twice tolerates inputs the decoder accepts in a non-canonical form
// (an over-long varint, a presence byte other than 0 or 1).
func codecRoundTrip[T any](t *testing.T, name string, b []byte, dec func([]byte) (T, error), enc func([]byte, *T) []byte) {
	v, err := dec(b)
	if err != nil {
		return
	}
	once := enc(nil, &v)
	v2, err := dec(once)
	if err != nil {
		t.Fatalf("%s: re-encoded payload %x does not decode: %v", name, once, err)
	}
	if twice := enc(nil, &v2); !bytes.Equal(once, twice) {
		t.Fatalf("%s: encoding is not a fixed point:\nonce  %x\ntwice %x", name, once, twice)
	}
}

// FuzzDecode feeds arbitrary bytes to every payload decoder in codec.go.
// The seed corpus is the encoded round-trip fixtures plus a forged
// element count.
func FuzzDecode(f *testing.F) {
	for _, seed := range [][]byte{
		AppendHello(nil, "tenant-key"),
		AppendPredictRequest(nil, &fixturePredictRequest),
		AppendPredictResponse(nil, &fixturePredictResponse),
		AppendBatchRequest(nil, &fixtureBatchRequest),
		AppendBatchResponse(nil, &fixtureBatchResponse),
		AppendError(nil, &fixtureError),
		AppendCall(nil, &fixtureCall),
		AppendCallResp(nil, &fixtureCallResp),
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x40},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		codecRoundTrip(t, "hello", b, DecodeHello, func(buf []byte, key *string) []byte { return AppendHello(buf, *key) })
		codecRoundTrip(t, "predict request", b, DecodePredictRequest, AppendPredictRequest)
		codecRoundTrip(t, "predict response", b, DecodePredictResponse, AppendPredictResponse)
		codecRoundTrip(t, "batch request", b, DecodeBatchRequest, AppendBatchRequest)
		codecRoundTrip(t, "batch response", b, DecodeBatchResponse, AppendBatchResponse)
		codecRoundTrip(t, "error", b, DecodeError, AppendError)
		codecRoundTrip(t, "call", b, DecodeCall, AppendCall)
		codecRoundTrip(t, "call response", b, DecodeCallResp, AppendCallResp)
	})
}
