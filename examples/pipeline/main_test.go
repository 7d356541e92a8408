package main

// Example runs the pipeline demo at its built-in sizes: go test fails if a
// printed character changes.
func Example() {
	main()
	// Output:
	// second pass over a warm 32 MB file, 16 MB cache, computing at 20 MB/s:
	//
	// plain            5.44s elapsed    8192 faults
	// hints            3.18s elapsed      16 faults
	// sleds            3.86s elapsed    4096 faults
	// sleds+hints      2.77s elapsed      48 faults
}
