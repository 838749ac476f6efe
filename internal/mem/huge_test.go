package mem

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// An arena of a few huge pages starts on a 2 MB boundary, and its
// mapping carries the kernel's "hg" flag (MADV_HUGEPAGE).
func TestArenaAdvisedHugePages(t *testing.T) {
	if thp, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || strings.Contains(string(thp), "[never]") {
		t.Skipf("transparent huge pages unavailable or [never]: %q %v", thp, err)
	}
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	a := NewArena(8 << 20)
	base := uintptr(unsafe.Pointer(&a.words[0]))
	if base%(2<<20) != 0 {
		t.Fatalf("arena starts at %#x, not on a 2 MB boundary", base)
	}
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x ", &lo, &hi); n == 2 {
			in = lo <= base && base < hi
		} else if flags, ok := strings.CutPrefix(line, "VmFlags:"); ok && in {
			if !strings.Contains(" "+flags+" ", " hg ") {
				t.Fatalf("arena mapping %s lacks hg", flags)
			}
			return
		}
	}
	t.Fatalf("no smaps mapping holds %#x", base)
}

// A test-sized arena is not padded to a huge page.
func TestSmallArenaUnpadded(t *testing.T) {
	a := NewArena(64 << 10)
	if cap(a.words) != len(a.words) {
		t.Fatalf("64 KB arena: len %d cap %d", len(a.words), cap(a.words))
	}
}
