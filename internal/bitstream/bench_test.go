package bitstream

import "testing"

// The frame path at the size the service runs it: a 64x96 Virtex is
// 64 rows x 96 columns x 629 bytes per tile, and one served op dirties
// about 13 frames in a handful of runs. Rows for `make bench-go`; timing
// claims go through `go run ./benchmark`.
var benchLayout = Layout{Rows: 64, Cols: 96, BytesPerTile: 629}

// benchFrames is 13 frames: a run of three, a run of two, a run of four
// and four isolated frames, first and last frame of the device included.
var benchFrames = []FrameAddr{
	{0, 0}, {10, 5}, {10, 6}, {10, 7}, {10, 100}, {11, 200}, {11, 201},
	{40, 7}, {41, 300}, {41, 301}, {41, 302}, {41, 303}, {95, 628},
}

// benchDirty returns a device-sized bitstream whose dirty set is
// benchFrames, each frame holding a byte pattern derived from salt.
func benchDirty(b *testing.B, salt byte) *Bitstream {
	bs, err := New(benchLayout)
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, benchLayout.Rows)
	for i, fa := range benchFrames {
		for r := range frame {
			frame[r] = salt + byte(i*31+r)
		}
		if err := bs.LoadFrame(fa, frame); err != nil {
			b.Fatal(err)
		}
	}
	return bs
}

var benchSink uint16

func BenchmarkCRC16(b *testing.B) {
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = crc16(benchSink, data)
	}
}

func BenchmarkPartialConfig(b *testing.B) {
	bs := benchDirty(b, 1)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = bs.AppendPartialConfig(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkApplyPartial alternates two streams over the same frames, so
// every apply verifies the CRC and rewrites all 13 frames.
func BenchmarkApplyPartial(b *testing.B) {
	var streams [2][]byte
	for i := range streams {
		var err error
		if streams[i], err = benchDirty(b, byte(1+i)).PartialConfig(); err != nil {
			b.Fatal(err)
		}
	}
	dst, err := New(benchLayout)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(streams[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := dst.ApplyConfig(streams[i&1]); err != nil || n != len(benchFrames) {
			b.Fatalf("ApplyConfig = %d, %v", n, err)
		}
	}
}
