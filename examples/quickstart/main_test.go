package main

// Example runs the quickstart demo at its built-in sizes: go test fails if a
// printed character changes.
func Example() {
	main()
	// Output:
	// SLEDs after one linear pass:
	//   [0,+16777216) lat=0.0168062s bw=8.851 MB/s  -> delivery 1.825s
	//   [16777216,+8388608) lat=1.94e-07s bw=48 MB/s  -> delivery 0.1667s
	// estimated total delivery time (best order): 1.991s
	//
	// linear second pass:        6144 hard faults
	// SLEDs-ordered second pass: 4096 hard faults (cached tail read first)
}
