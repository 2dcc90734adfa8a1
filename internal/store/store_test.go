package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	db := NewDB()
	rev, err := db.PutFenced(0, "doc1", "", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if rev == "" {
		t.Fatal("empty revision")
	}
	d, err := db.Get("doc1")
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Body) != "hello" || d.Rev != rev || d.ID != "doc1" {
		t.Fatalf("doc = %+v", d)
	}
}

func TestPutEmptyIDRejected(t *testing.T) {
	db := NewDB()
	if _, err := db.PutFenced(0, "", "", nil); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestGetMissing(t *testing.T) {
	db := NewDB()
	if _, err := db.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateRequiresMatchingRev(t *testing.T) {
	db := NewDB()
	rev1, _ := db.PutFenced(0, "d", "", []byte("v1"))
	if _, err := db.PutFenced(0, "d", "bogus", []byte("v2")); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale rev err = %v", err)
	}
	if _, err := db.PutFenced(0, "d", "", []byte("v2")); !errors.Is(err, ErrConflict) {
		t.Fatalf("create-over-existing err = %v", err)
	}
	rev2, err := db.PutFenced(0, "d", rev1, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if rev2 == rev1 {
		t.Fatal("revision did not advance")
	}
	if g := revGen(rev2); g != 2 {
		t.Fatalf("generation = %d", g)
	}
}

func TestCreateWithRevRejected(t *testing.T) {
	db := NewDB()
	if _, err := db.PutFenced(0, "new", "1-abc", []byte("x")); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
}

func TestForceAlwaysWins(t *testing.T) {
	db := NewDB()
	db.PutFenced(0, "d", "", []byte("v1"))
	rev, err := db.Force("d", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if revGen(rev) != 2 {
		t.Fatalf("rev = %s", rev)
	}
	d, _ := db.Get("d")
	if string(d.Body) != "v2" {
		t.Fatalf("body = %s", d.Body)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := NewDB()
	db.PutFenced(0, "d", "", []byte("abc"))
	d, _ := db.Get("d")
	d.Body[0] = 'X'
	d2, _ := db.Get("d")
	if string(d2.Body) != "abc" {
		t.Fatal("Get leaked internal buffer")
	}
}

func TestPutCopiesInput(t *testing.T) {
	db := NewDB()
	buf := []byte("abc")
	db.PutFenced(0, "d", "", buf)
	buf[0] = 'X'
	d, _ := db.Get("d")
	if string(d.Body) != "abc" {
		t.Fatal("Put aliased caller buffer")
	}
}

func TestSeqAdvances(t *testing.T) {
	db := NewDB()
	rev, _ := db.PutFenced(0, "a", "", nil)
	db.PutFenced(0, "b", "", nil)
	db.PutFenced(0, "a", rev, nil)
	if db.Seq() != 3 {
		t.Fatalf("seq = %d", db.Seq())
	}
}

func TestKeys(t *testing.T) {
	db := NewDB()
	db.PutFenced(0, "a", "", nil)
	db.PutFenced(0, "b", "", nil)
	keys := db.Keys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestConcurrentWritersOneWinnerPerRound(t *testing.T) {
	db := NewDB()
	rev, _ := db.PutFenced(0, "shared", "", []byte("base"))
	const writers = 16
	var wg sync.WaitGroup
	wins := make(chan int, writers)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.PutFenced(0, "shared", rev, []byte(fmt.Sprintf("w%d", i))); err == nil {
				wins <- i
			}
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d writers won the same revision, want exactly 1", n)
	}
}

func TestConcurrentDistinctDocs(t *testing.T) {
	db := NewDB()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("doc-%d", i)
			rev, err := db.PutFenced(0, id, "", []byte{byte(i)})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := db.PutFenced(0, id, rev, []byte{byte(i), 2}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if db.Len() != 64 {
		t.Fatalf("len = %d", db.Len())
	}
}

// Property: a sequence of successful updates yields strictly increasing
// generations and the final body is the last written.
func TestRevisionGenerationProperty(t *testing.T) {
	prop := func(bodies [][]byte) bool {
		db := NewDB()
		rev := ""
		lastGen := 0
		for _, b := range bodies {
			newRev, err := db.PutFenced(0, "d", rev, b)
			if err != nil {
				return false
			}
			g := revGen(newRev)
			if g != lastGen+1 {
				return false
			}
			lastGen = g
			rev = newRev
		}
		if len(bodies) == 0 {
			return true
		}
		d, err := db.Get("d")
		return err == nil && string(d.Body) == string(bodies[len(bodies)-1])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolString(t *testing.T) {
	cases := map[Protocol]string{
		ProtoCouchDB: "couchdb", ProtoDirectRPC: "rpc",
		ProtoInMemory: "inmemory", ProtoRemoteMem: "remotemem",
		Protocol(99): "protocol(99)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%d -> %q", int(p), p.String())
		}
	}
}

func TestLatencyModelOrderingMatchesFig6c(t *testing.T) {
	for _, sizeMB := range []float64{0.01, 0.5, 2, 16} {
		couch := ExchangeS(ProtoCouchDB, sizeMB)
		rpc := ExchangeS(ProtoDirectRPC, sizeMB)
		remote := ExchangeS(ProtoRemoteMem, sizeMB)
		inmem := ExchangeS(ProtoInMemory, sizeMB)
		if !(couch > rpc && rpc > remote && remote > inmem) {
			t.Fatalf("size %g: ordering violated: couch=%g rpc=%g remote=%g inmem=%g",
				sizeMB, couch, rpc, remote, inmem)
		}
	}
	// CouchDB should be roughly an order of magnitude above direct RPC
	// for small objects (Fig. 6c shows a dramatic gap).
	if ExchangeS(ProtoCouchDB, 0.1) < 5*ExchangeS(ProtoDirectRPC, 0.1) {
		t.Fatal("CouchDB gap vs RPC too small")
	}
}

func TestLatencyModelNegativeSizeClamped(t *testing.T) {
	if ExchangeS(ProtoCouchDB, -5) != ExchangeS(ProtoCouchDB, 0) {
		t.Fatal("negative size not clamped")
	}
}

func TestLatencyModelUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	ExchangeS(Protocol(42), 1)
}
