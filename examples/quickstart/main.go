// Quickstart: trace a small real-data preprocessing pipeline end to end.
//
// This example runs in REAL time with REAL pixel work: images are
// synthesized, SJPG-encoded, decoded, cropped, resampled, converted and
// normalized by actual kernels on actual buffers, under ordinary goroutines.
// LotusTrace instruments the run; we then print per-operation statistics and
// write a Chrome Trace Viewer file.
//
// Run: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"lotus"
)

func main() {
	var logBuf bytes.Buffer
	tracer := lotus.NewTracer(&logBuf)
	hooks := tracer.Hooks()

	// A small synthetic "ImageNet": 48 images with realistic size spread.
	dataset := lotus.NewImageDataset(lotus.ImageConfig{
		Name: "quickstart", N: 48,
		MeanFileKB: 40, StdFileKB: 25, MinFileKB: 10, MaxFileKB: 120,
		CompressionRatio: 10, Classes: 10, Seed: 7,
		IO: lotus.IOModel{BaseLatency: 200 * time.Microsecond, BandwidthMBps: 700},
	})

	compose := lotus.NewCompose(
		&lotus.Loader{IO: dataset.IO},
		&lotus.RandomResizedCrop{Size: 64},
		&lotus.RandomHorizontalFlip{},
		&lotus.ToTensor{},
		&lotus.Normalize{Mean: []float32{0.485, 0.456, 0.406}, Std: []float32{0.229, 0.224, 0.225}},
	)
	compose.Hooks = hooks

	clk := lotus.NewRealClock()
	loader := lotus.NewDataLoader(clk, lotus.NewImageFolder(dataset, compose), lotus.LoaderConfig{
		BatchSize:      8,
		NumWorkers:     2,
		Shuffle:        true,
		Seed:           7,
		Hooks:          hooks,
		Mode:           lotus.RealData,
		MaterializeDim: 128,
	})

	start := time.Now()
	batches := 0
	clk.Run("main", func(p lotus.Proc) {
		it := loader.Start(p)
		for {
			b, ok := it.Next(p)
			if !ok {
				break
			}
			batches++
			fmt.Printf("batch %d from worker %d: tensor %v, %d samples\n",
				b.ID, b.WorkerID, b.Data.Shape, b.Size())
		}
	})
	if err := tracer.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nepoch: %d batches in %v (real time, real pixels)\n", batches, time.Since(start).Round(time.Millisecond))

	analysis := lotus.Analyze(lotus.MustReadLog(bytes.NewReader(logBuf.Bytes())))
	fmt.Println("\nper-operation elapsed time (measured by LotusTrace):")
	for op, st := range analysis.OpStats() {
		fmt.Printf("  %-22s n=%-4d mean=%-12v p90=%v\n", op, st.Count, st.Mean.Round(time.Microsecond), st.P90.Round(time.Microsecond))
	}
	fmt.Println("  (real pixels: ToTensor and Normalize read ~0 because the loader's Collate runs them, in its one pass from pixels to batch)")

	viz, err := lotus.ExportChrome(analysis.Records, lotus.Fine)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("quickstart_trace.json", viz, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote quickstart_trace.json — open chrome://tracing to see the data flow")
}
