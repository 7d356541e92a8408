package main

// Example runs the hsmtape demo at its built-in sizes: go test fails if a
// printed character changes.
func Example() {
	main()
	// Output:
	// SLEDs properties: /data/archive/run2.dat (25165824 bytes)
	//       offset       length        latency      bandwidth     delivery
	//            0     12582912        95.03 s        5.00 MB/s      97.43 s
	//     12582912     12582912       16.81 ms        8.85 MB/s       1.37 s
	// estimated total delivery time: 98.81 s (linear), 98.81 s (best)
	//
	// find /data/archive -latency -1 (no tape mounts): 1 file(s)
	//   /data/archive/run0-summary.dat   0.4687 s
	//
	// grep -q without SLEDs  1 match      48.251s elapsed
	// grep -q with SLEDs     1 match       0.589s elapsed
}
