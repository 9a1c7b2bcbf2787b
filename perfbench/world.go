package main

// The benchmark's venue, model and generated inputs. The venue and the
// model are fixed (the same building and trainer settings as the
// repository's BenchmarkAnnotateSingleSequence), so every seed runs
// against the same server configuration; --seed chooses the mobility,
// the request mix and the stored history.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"c2mn"
	"c2mn/internal/core"
	"c2mn/internal/features"
	"c2mn/internal/query"
	"c2mn/internal/sim"
	"c2mn/internal/snapshot"
)

// Segmentation the servers run with: η splits a stream on a silence
// longer than 120 s, ψ drops fragments shorter than 60 s.
const (
	eta = 120.0
	psi = 60.0
)

// world is the venue every server loads, in the serialised form the
// servers read and in the parsed forms the oracle and the replay use.
type world struct {
	spaceJSON, modelJSON []byte
	space                *c2mn.Space
	ann                  *c2mn.Annotator // c2mn.Load of modelJSON: the oracle
	model                *core.Model
	ex                   *features.Extractor
	spaceHash, modelHash string
}

func buildWorld() (*world, error) {
	space, err := c2mn.GenerateBuilding(sim.SmallBuilding(), 1)
	if err != nil {
		return nil, err
	}
	train, err := c2mn.GenerateMobility(space, c2mn.MobilitySpec{
		Objects: 10, Duration: 1500, MaxSpeed: 1.7, StayMin: 1, StayMax: 300,
		T: 5, Mu: 3, FalseFloorProb: 0.03, OutlierProb: 0.03,
	}, 5)
	if err != nil {
		return nil, err
	}
	trained, err := c2mn.Train(space, train.Sequences[:len(train.Sequences)/2], c2mn.TrainOptions{
		V: 6, Exact: true, TuneClustering: true, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	w := &world{}
	var sb, mb bytes.Buffer
	if err := space.WriteJSON(&sb); err != nil {
		return nil, err
	}
	if err := trained.Save(&mb); err != nil {
		return nil, err
	}
	w.spaceJSON, w.modelJSON = sb.Bytes(), mb.Bytes()
	// Parse both back exactly as msserve does, so the oracle annotates
	// with the same bits the servers hold.
	if w.space, err = c2mn.ReadSpace(bytes.NewReader(w.spaceJSON)); err != nil {
		return nil, err
	}
	if w.ann, err = c2mn.Load(w.space, bytes.NewReader(w.modelJSON)); err != nil {
		return nil, err
	}
	if w.model, err = core.ReadModelJSON(bytes.NewReader(w.modelJSON)); err != nil {
		return nil, err
	}
	if w.ex, err = features.NewExtractor(w.space, w.model.Params); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := w.space.WriteJSON(&buf); err != nil {
		return nil, err
	}
	w.spaceHash = sha256Hex(buf.Bytes())
	buf.Reset()
	if err := w.model.WriteJSON(&buf); err != nil {
		return nil, err
	}
	w.modelHash = sha256Hex(buf.Bytes())
	return w, nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// mobility is the simulator profile of every generated trajectory:
// the paper's synthetic setup with dwells long enough that most visits
// contain a stay.
func mobility(objects int, duration, mu float64) c2mn.MobilitySpec {
	return c2mn.MobilitySpec{
		Objects: objects, Duration: duration, MaxSpeed: 1.7, StayMin: 30, StayMax: 600,
		T: 5, Mu: mu, FalseFloorProb: 0.03, OutlierProb: 0.03,
	}
}

// visits cuts simulated tracks into visits: runs of between lo and hi
// records that each contain at least minStay consecutive ground-truth
// stay records, so the fragment a visit becomes changes the
// popular-regions answer when it is stored. Each visit's timestamps
// start at zero.
func visits(space *c2mn.Space, rng *rand.Rand, n, lo, hi int, mu float64) ([][]c2mn.Record, error) {
	const minStay = 8
	var out [][]c2mn.Record
	for round := 0; len(out) < n; round++ {
		if round > 50 {
			return nil, fmt.Errorf("simulator yielded %d of %d visits", len(out), n)
		}
		ds, err := c2mn.GenerateMobility(space, mobility(16, 4*float64(hi)*3, mu), rng.Int63())
		if err != nil {
			return nil, err
		}
		for _, ls := range ds.Sequences {
			recs := ls.P.Records
			for a := 0; a < len(recs) && len(out) < n; {
				l := lo + rng.Intn(hi-lo+1)
				if a+l > len(recs) {
					break
				}
				if stayRun(ls.Labels.Events[a:a+l]) >= minStay {
					v := make([]c2mn.Record, l)
					t0 := recs[a].T
					for i, r := range recs[a : a+l] {
						v[i] = c2mn.Record{Loc: r.Loc, T: r.T - t0}
					}
					out = append(out, v)
				}
				a += l
			}
		}
	}
	return out, nil
}

func stayRun(events []c2mn.Event) int {
	best, cur := 0, 0
	for _, e := range events {
		if e == c2mn.Stay {
			cur++
			best = max(best, cur)
		} else {
			cur = 0
		}
	}
	return best
}

// visitPool bounds the distinct visits one plan simulates.
const visitPool = 4096

// feedBatch is one POST /v1/venues/{venue}/feed: a time-ordered slice
// of one object's records.
type feedBatch struct {
	venue, object string
	records       []c2mn.Record
}

// streamSpec shapes the feed streams: each object comes back for visit
// after visit, separated by silences longer than η, and every visit is
// posted in chunks batches. The first batch of a visit closes the
// object's previous visit on the feed path.
type streamSpec struct {
	venues           []string
	objectsPerVenue  int
	batches          int // total batches to plan
	visitLo, visitHi int // records per visit
	chunks           int // batches per visit
	mu               float64
}

// planFeeds generates the feed schedule: batches in the order they are
// sent, interleaving objects at random. Object IDs carry the seed and
// a per-object counter, so they are unique to the run.
func planFeeds(space *c2mn.Space, sp streamSpec, seed int64) ([]feedBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	// Up to visitPool distinct visits; longer plans reuse them, shifted
	// in time and walked by other objects.
	pool, err := visits(space, rng, min(sp.batches/sp.chunks+1, visitPool), sp.visitLo, sp.visitHi, sp.mu)
	if err != nil {
		return nil, err
	}
	type object struct {
		venue, id string
		clock     float64
		pending   [][]c2mn.Record // remaining batches of the current visit
	}
	var objs []*object
	for _, v := range sp.venues {
		for i := 0; i < sp.objectsPerVenue; i++ {
			objs = append(objs, &object{
				venue: v, id: fmt.Sprintf("s%d-%s-%d", seed, v, i),
				clock: rng.Float64() * 600,
			})
		}
	}
	next := 0
	out := make([]feedBatch, 0, sp.batches)
	for len(out) < sp.batches {
		o := objs[rng.Intn(len(objs))]
		if len(o.pending) == 0 {
			v := pool[next%len(pool)]
			next++
			start := o.clock + eta + 30 + rng.Float64()*300
			shifted := make([]c2mn.Record, len(v))
			for i, r := range v {
				shifted[i] = c2mn.Record{Loc: r.Loc, T: r.T + start}
			}
			o.clock = shifted[len(shifted)-1].T
			size := (len(shifted) + sp.chunks - 1) / sp.chunks
			for a := 0; a < len(shifted); a += size {
				o.pending = append(o.pending, shifted[a:min(a+size, len(shifted))])
			}
		}
		out = append(out, feedBatch{venue: o.venue, object: o.id, records: o.pending[0]})
		o.pending = o.pending[1:]
	}
	return out, nil
}

// planTrajectories generates the annotate pool: n trajectories whose
// lengths sit at the n quantile midpoints of the log-uniform
// distribution between lo and hi records, alternating between two
// positioning-error levels. The seed chooses the movement, not the
// length mix, so every seed costs the same work.
func planTrajectories(space *c2mn.Space, n, lo, hi int, seed int64) ([]c2mn.PSequence, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]c2mn.PSequence, 0, n)
	for i := 0; i < n; i++ {
		mu := 3.0
		if i%2 == 1 {
			mu = 7.0
		}
		q := (float64(i) + 0.5) / float64(n)
		want := int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), q)))
		var recs []c2mn.Record
		for tries := 0; len(recs) < want; tries++ {
			if tries > 20 {
				return nil, fmt.Errorf("simulator yielded %d of %d records", len(recs), want)
			}
			ds, err := c2mn.GenerateMobility(space, mobility(1, float64(want)*3.5, mu), rng.Int63())
			if err != nil {
				return nil, err
			}
			if len(ds.Sequences) > 0 && ds.Sequences[0].P.Len() >= want {
				recs = ds.Sequences[0].P.Records[:want]
			}
		}
		out = append(out, c2mn.PSequence{ObjectID: fmt.Sprintf("s%d-t%d", seed, i), Records: recs})
	}
	return out, nil
}

// historySnapshot builds the snapshot a fleet_query venue restores
// from: n stored m-semantics sequences of three stays each over
// [0, span) seconds, shaped like the repository's query and snapshot
// benchmarks, under the venue's identity hashes and the servers'
// η/ψ so the restore guards accept it.
func historySnapshot(w *world, venue string, n int, span float64, seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	st := query.NewStore(0)
	regions := w.space.NumRegions()
	for i := 0; i < n; i++ {
		ms := c2mn.MSSequence{ObjectID: fmt.Sprintf("h%d-%s-%d", seed, venue, i)}
		t := rng.Float64() * span
		for j := 0; j < 3; j++ {
			d := 30 + rng.Float64()*120
			ms.Semantics = append(ms.Semantics, c2mn.MSemantics{
				Region: c2mn.RegionID(rng.Intn(regions)), Start: t, End: t + d, Event: c2mn.Stay,
			})
			t += d * 0.4
		}
		st.Add(ms)
	}
	var buf bytes.Buffer
	err := snapshot.Write(&buf, &snapshot.File{
		Header: snapshot.Header{Venue: venue, SpaceHash: w.spaceHash, ModelHash: w.modelHash},
		Engine: snapshot.EngineSection{Eta: eta, Psi: psi, EmittedSequences: int64(n)},
		Index:  snapshot.EncodeIndex(st.SnapshotState()),
	})
	return buf.Bytes(), err
}
