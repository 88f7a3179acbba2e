package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// referenceDecodeNDJSON is the encoding/json decoder DecodeNDJSON
// replaced: bufio.Scanner framing with a 1 MiB line buffer and one
// json.Unmarshal per line. DecodeNDJSON must match it on every body.
func referenceDecodeNDJSON(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", line, err)
		}
		out = append(out, rec)
		if len(out) > MaxBatchRecords {
			return nil, fmt.Errorf("batch exceeds the %d-record cap", MaxBatchRecords)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	return out, nil
}

// checkAgainstReference decodes body with both decoders and fails on
// any difference: records (value bits included), nil-ness of the
// result, and the error text.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecodeNDJSON(bytes.NewReader(body))
	got, gotErr := DecodeNDJSON(bytes.NewReader(body))
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("error drifted from encoding/json:\n want %v\n  got %v", wantErr, gotErr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("records drifted from encoding/json:\n want %+v\n  got %+v", want, got)
	}
	for i := range want {
		if math.Float64bits(want[i].Value) != math.Float64bits(got[i].Value) {
			t.Fatalf("record %d: value bits %x, want %x", i, math.Float64bits(got[i].Value), math.Float64bits(want[i].Value))
		}
	}
}

// FuzzDecodeNDJSON is the differential check of the hand-written
// scanner: on any body DecodeNDJSON returns what encoding/json does.
// The seeds in testdata/fuzz/FuzzDecodeNDJSON run with every go test;
// the over-long line is generated here to keep a 1 MiB file out of the
// tree.
func FuzzDecodeNDJSON(f *testing.F) {
	f.Add([]byte(`{"sensor":"x","value":` + strings.Repeat("1", maxNDJSONLine) + "}\n{\"t\":1}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// TestDecodeNDJSONLineCap pins the 1 MiB framing limit around its
// boundary, with and without a final newline and with CRLF.
func TestDecodeNDJSONLineCap(t *testing.T) {
	object := func(n int) string { // a Record line of n bytes
		return `{"sensor":"` + strings.Repeat("s", n-len(`{"sensor":""}`)) + `"}`
	}
	for _, n := range []int{maxNDJSONLine - 1, maxNDJSONLine, maxNDJSONLine + 1, maxNDJSONLine + 2} {
		line := object(n)
		for _, body := range []string{
			line,
			line + "\n",
			object(n-1) + "\r\n",
			"{\"t\":1}\n" + line + "\n{\"t\":2}",
			"{\"t\":\n" + line,
		} {
			t.Run(fmt.Sprintf("%d/%d", n, len(body)), func(t *testing.T) {
				checkAgainstReference(t, []byte(body))
			})
		}
	}
}

// errAfterReader yields its data, then fails.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestDecodeNDJSONReadError checks that a failing reader reports its
// error after the lines read before it, like the scanner did: a bad
// line ahead of the failure still wins.
func TestDecodeNDJSONReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, body := range []string{
		"{\"t\":1}\n{\"t\":2}",
		"{\"t\":1}\n{\"t\":",
		"{\"t\":1}\nnot json\n{\"t\":2}\n",
	} {
		want, wantErr := referenceDecodeNDJSON(&errAfterReader{[]byte(body), boom})
		got, gotErr := DecodeNDJSON(&errAfterReader{[]byte(body), boom})
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || !reflect.DeepEqual(want, got) {
			t.Errorf("%q: got %v, %v; want %v, %v", body, got, gotErr, want, wantErr)
		}
	}
}

// TestNDJSONPresizeBounded checks that the presized output grows with
// non-blank lines and never beyond one record per minPresizeLine body
// bytes.
func TestNDJSONPresizeBounded(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{strings.Repeat("\n", 1<<16), 0},
		{strings.Repeat(" \t\r\n", 1<<14), 0},
		{strings.Repeat("x\n", 1<<15), 1 << 16 / minPresizeLine},
		{strings.Repeat(`{"sensor":"temperature","t":1,"value":2}`+"\n\n", 100), 100},
	}
	for _, tc := range cases {
		if got := ndjsonCap([]byte(tc.body)); got != tc.want {
			t.Errorf("ndjsonCap(%.20q…) = %d, want %d", tc.body, got, tc.want)
		}
	}
}

// TestDecodeNDJSONSharesIdentifiers checks that one body's repeated
// identifiers come back as one string each.
func TestDecodeNDJSONSharesIdentifiers(t *testing.T) {
	recs, err := DecodeNDJSON(strings.NewReader(
		`{"machine":"m1","job":"j1","phase":"p","sensor":"s","t":1,"value":1}
{"sensor":"m1","phase":"p","job":"j1","machine":"m1","t":2,"value":2}`))
	if err != nil {
		t.Fatal(err)
	}
	a, b := recs[0], recs[1]
	for _, s := range []string{b.Machine, b.Sensor} {
		if unsafe.StringData(s) != unsafe.StringData(a.Machine) {
			t.Errorf("identifier %q materialised twice", s)
		}
	}
	if unsafe.StringData(a.Job) != unsafe.StringData(b.Job) || unsafe.StringData(a.Phase) != unsafe.StringData(b.Phase) {
		t.Error("job or phase materialised twice")
	}
}

// interleavedRecords returns n records the way a fleet streams them:
// three machines and the climate sources take turns, each sample
// carrying full-precision values for four sensors.
func interleavedRecords(n int) []Record {
	machines := []string{"line-1/m-1", "line-1/m-2", "line-2/m-1"}
	sensors := []string{"temperature", "pressure", "vibration", "current"}
	phases := []string{"heating", "printing", "cooling"}
	recs := make([]Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		src, t := i%(len(machines)+1), i/(len(machines)+1)
		for si, s := range sensors {
			if len(recs) == n {
				break
			}
			v := 20*math.Sin(float64(3*t+si)) + float64(10*src)
			if src == len(machines) {
				recs = append(recs, Record{Env: true, Sensor: "hall-" + s, T: t, Value: v})
				continue
			}
			recs = append(recs, Record{
				Machine: machines[src], Job: fmt.Sprintf("job-%03d", t/40), Phase: phases[t/10%len(phases)],
				Sensor: s, T: t, Value: v,
			})
		}
	}
	return recs
}

func encodedBatch(t testing.TB, n int) []byte {
	body, err := EncodeNDJSON(interleavedRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeNDJSONAllocs gates the allocation count of a typical ingest
// batch: the scanner allocates per body and per distinct identifier,
// not per record.
func TestDecodeNDJSONAllocs(t *testing.T) {
	const n, budget = 300, 0.25
	body := encodedBatch(t, n)
	want, err := referenceDecodeNDJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, body)
	allocs := testing.AllocsPerRun(20, func() {
		if got, err := DecodeNDJSON(bytes.NewReader(body)); err != nil || len(got) != len(want) {
			t.Fatalf("decode: %d records, %v", len(got), err)
		}
	})
	if per := allocs / n; per > budget {
		t.Fatalf("DecodeNDJSON: %.2f allocs/record over a %d-record batch, budget %.2f", per, n, budget)
	}
}

// benchRecords keeps the benchmarked decodes from being optimised away.
var benchRecords []Record

// BenchmarkDecodeNDJSON and BenchmarkDecodeBinary decode the same
// 300-record batch, the NDJSON batch size of a replayed trace, so their
// ns/record compare the two ingest codecs layer to layer.
func BenchmarkDecodeNDJSON(b *testing.B) {
	benchmarkDecode(b, encodedBatch(b, 300), 300, DecodeNDJSON)
}

func BenchmarkDecodeBinary(b *testing.B) {
	body, err := EncodeBinary(interleavedRecords(300))
	if err != nil {
		b.Fatal(err)
	}
	benchmarkDecode(b, body, 300, DecodeBinary)
}

func benchmarkDecode(b *testing.B, body []byte, n int, decode func(io.Reader) ([]Record, error)) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := decode(bytes.NewReader(body))
		if err != nil || len(recs) != n {
			b.Fatalf("decoded %d of %d records: %v", len(recs), n, err)
		}
		benchRecords = recs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
