package main

import "fmt"

// shape names one deployment of firehosed: which committed configs boot it.
type shape string

const (
	shapeSeq    shape = "seq"    // one process, engine.workers:1
	shapePar    shape = "par"    // one process, engine.workers:2
	shapeRouter shape = "router" // router + 2 shard workers (workers:1 each)
)

// streamSpec is one seeded twittergen stream. The generator draws a Poisson
// number of posts per author over the whole duration, so a stream is always
// generated in full and a workload replays a prefix of it.
type streamSpec struct {
	name           string
	postsPerAuthor float64 // mean posts per author over durationMillis
	durationMillis int64
}

const (
	numAuthors = 5000
	dayMillis  = 24 * 60 * 60 * 1000
)

// Stream density, not wall time, is the dimension that loads core (Kraus et
// al.: similarity-search cost follows window occupancy): both streams run
// under λt = 30 min, so `paper` holds ≈4.2k posts per window (the paper's
// 200k posts/day) and `dense` ≈16.7k (160 posts/author/day, generated for the
// first half day only because generation is linear in posts).
var (
	streamPaper = streamSpec{name: "paper", postsPerAuthor: 40, durationMillis: dayMillis}
	streamDense = streamSpec{name: "dense", postsPerAuthor: 80, durationMillis: dayMillis / 2}
)

// checkpointsPerRun is the number of POST /v1/admin/checkpoint calls every
// workload issues, evenly spaced over its requests, the last after the final
// request.
const checkpointsPerRun = 15

// workload is one traffic mix against one deployment shape. The post count is
// fixed by (-seconds × postsPerSecond), never by a deadline, so counters,
// digests and memory repeat exactly from run to run.
type workload struct {
	name   string
	why    string // mirrored in BENCHMARK.json
	shape  shape
	stream streamSpec
	// postsPerSecond sizes the run: the probe rate of this workload on the
	// 2-core reference box, so the timed phase lasts about -seconds. On the
	// open-loop workload it is also the send schedule.
	postsPerSecond int
	batch          int  // posts per request; 1 = POST /v1/ingest
	openLoop       bool // send on a schedule, time from due
}

var workloads = []workload{
	{
		name:           "single-seq",
		why:            "one POST /v1/ingest per post on the sequential engine: httpapi + net/http do over 90% of the work, core little",
		shape:          shapeSeq,
		stream:         streamPaper,
		postsPerSecond: 5000,
		batch:          1,
	},
	{
		name:           "batch-par",
		why:            "256-post batches of the dense stream on 2 workers: textnorm, simhash, core and the stream batch path dominate, HTTP is amortised",
		shape:          shapePar,
		stream:         streamDense,
		postsPerSecond: 30000,
		batch:          256,
	},
	{
		name:           "single-router",
		why:            "the single-seq prefix through a router and 2 shard workers, so the difference to single-seq is the shard forward",
		shape:          shapeRouter,
		stream:         streamPaper,
		postsPerSecond: 2000,
		batch:          1,
	},
	{
		name:           "paced-ckpt",
		why:            "open loop at 1500 posts/s on 2 workers with checkpoints under traffic: a stall shows as latency from the due time, not as lost throughput",
		shape:          shapePar,
		stream:         streamPaper,
		postsPerSecond: 1500,
		batch:          1,
		openLoop:       true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// posts returns the fixed post count for a run of the given length: a whole
// number of requests divisible by checkpointsPerRun, so every checkpoint
// falls on a request boundary.
func (w workload) posts(seconds int) int {
	unit := w.batch * checkpointsPerRun
	n := w.postsPerSecond * seconds / unit * unit
	// Leave the stream's tail unused: the Poisson post count varies by seed.
	limit := int(0.9*w.stream.postsPerAuthor*numAuthors) / unit * unit
	if n > limit {
		n = limit
	}
	return n
}
