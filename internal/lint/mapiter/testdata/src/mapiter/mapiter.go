package fake

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func badFmt(m map[string]int) {
	for k, v := range m { // want `map iteration order feeds fmt output \(fmt\.Println\)`
		fmt.Println(k, v)
	}
}

func badWriter(m map[string]int, w io.Writer) {
	for k := range m { // want `map iteration order feeds an io\.Writer \(w\.Write\)`
		w.Write([]byte(k))
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `map iteration order feeds an io\.Writer \(b\.WriteString\)`
		b.WriteString(k)
	}
	return b.String()
}

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appended to "keys" without a sort after the loop`
		keys = append(keys, k)
	}
	return keys
}

func okCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func okCollectThenSlicesSort(m map[int]string) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func okReduce(m map[string]int) int {
	n := 0
	for _, v := range m { // order-insensitive reduction: no sink, no finding
		n += v
	}
	return n
}

func okSliceRange(xs []string) {
	for _, x := range xs { // not a map: iteration order is defined
		fmt.Println(x)
	}
}

// An allow comment is an ordinary comment: it mutes nothing.
func allowMutesNothing(m map[string]int) {
	//sledlint:allow mapiter -- debug dump, never part of measured stdout
	for k := range m { // want `map iteration order feeds fmt output \(fmt\.Println\)`
		fmt.Println(k)
	}
}
