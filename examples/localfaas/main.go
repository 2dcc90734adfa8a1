// Local FaaS: run a HiveMind application for real, not simulated. The
// people-counting pipeline executes on the in-process serverless
// runtime (Go functions, warm containers, retries, straggler
// duplicates, store-backed data exchange) while the edge tier is served
// over the real RPC framework — the same split the compiler's generated
// bindings target.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
)

// sighting is what drones upload: a frame id plus the "faces" seen.
type sighting struct {
	Frame string   `json:"frame"`
	Faces []string `json:"faces"`
}

func main() {
	// --- Cloud side: the serverless runtime hosts recognition + dedup.
	cfg := runtime.DefaultConfig()
	cfg.StragglerAfter = 200 * time.Millisecond
	rt := runtime.New(cfg, nil)
	defer rt.Close()

	rt.Register("recognize", func(ctx context.Context, in []byte) ([]byte, error) {
		// "Recognition": extract face tokens from the raw frame text.
		var faces []string
		for _, tok := range strings.Fields(string(in)) {
			if strings.HasPrefix(tok, "person:") {
				faces = append(faces, strings.TrimPrefix(tok, "person:"))
			}
		}
		return json.Marshal(sighting{Frame: "f", Faces: faces})
	})
	rt.Register("dedup", func(ctx context.Context, in []byte) ([]byte, error) {
		// "Deduplication": count distinct identities across sightings.
		var all []sighting
		if err := json.Unmarshal(in, &all); err != nil {
			return nil, err
		}
		unique := map[string]bool{}
		for _, s := range all {
			for _, f := range s.Faces {
				unique[f] = true
			}
		}
		return []byte(fmt.Sprintf("%d", len(unique))), nil
	})

	// --- Edge side: obstacle avoidance stays on-board, reachable over
	// the synthesized RPC API (in-process pipe standing in for the
	// wireless link).
	edge := rpc.NewServer()
	edge.Register("collectImage.obstacleAvoidance", func(payload []byte) ([]byte, error) {
		if strings.Contains(string(payload), "obstacle") {
			return []byte("adjust-route"), nil
		}
		return []byte("hold-course"), nil
	})
	cc, sc := rpc.Pair()
	edge.ServeConn(sc)
	defer edge.Close()
	edgeClient, err := rpc.ConnEndpoint(func() (net.Conn, error) { return cc, nil }, 8)()
	if err != nil {
		panic(err)
	}
	defer edgeClient.Close()

	// --- Mission: 16 drones each upload 4 frames; recognition fans out
	// per frame; dedup aggregates everything.
	ctx := context.Background()
	people := []string{"ana", "bo", "chen", "dee", "eli", "fay", "gus"}
	var frames [][]byte
	for d := 0; d < 16; d++ {
		for f := 0; f < 4; f++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "frame d%d-%d trees grass", d, f)
			if f == 2 {
				sb.WriteString(" obstacle")
			}
			// Each frame sees a couple of (overlapping) people.
			sb.WriteString(" person:" + people[(d+f)%len(people)])
			sb.WriteString(" person:" + people[(d*3+f)%len(people)])
			frames = append(frames, []byte(sb.String()))
		}
	}

	start := time.Now()
	// Edge tier: every frame passes obstacle avoidance on-board first.
	adjustments := 0
	for _, fr := range frames {
		resp, err := edgeClient.CallSync("collectImage.obstacleAvoidance", fr)
		if err != nil {
			panic(err)
		}
		if string(resp) == "adjust-route" {
			adjustments++
		}
	}
	// Cloud tier 1: recognition fans out across functions (intra-task
	// parallelism, §3.2).
	outs, err := rt.FanOut(ctx, "recognize", frames)
	if err != nil {
		panic(err)
	}
	// Data exchange: recognition outputs land in the document store
	// (the CouchDB pattern), dedup reads them back.
	var all []sighting
	for i, out := range outs {
		key := fmt.Sprintf("out/recognize/%d", i)
		if _, err := rt.Store().Force(key, out); err != nil {
			panic(err)
		}
		doc, err := rt.Store().Get(key)
		if err != nil {
			panic(err)
		}
		var s sighting
		if err := json.Unmarshal(doc.Body, &s); err != nil {
			panic(err)
		}
		all = append(all, s)
	}
	blob, _ := json.Marshal(all)
	res, err := rt.Invoke(ctx, "dedup", blob)
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)

	st := rt.Stats()
	fmt.Printf("processed %d frames from 16 drones in %v (real execution)\n", len(frames), elapsed.Round(time.Millisecond))
	fmt.Printf("on-board obstacle adjustments: %d\n", adjustments)
	fmt.Printf("unique people counted: %s (ground truth: %d)\n", res.Output, len(people))
	fmt.Printf("runtime: %d invocations, %d cold starts, %d warm reuses, %d retries\n",
		st.Invocations, st.ColdStarts, st.WarmStarts, st.Retries)
	fmt.Printf("store: %d documents, %d updates\n", rt.Store().Len(), rt.Store().Seq())
}
