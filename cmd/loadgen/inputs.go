package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"firehose/internal/authorsim"
	"firehose/internal/corpusio"
	"firehose/internal/twittergen"
)

// post is the wire form of one generated post (the POST /v1/ingest body).
type post struct {
	Author     int32  `json:"author"`
	Text       string `json:"text"`
	TimeMillis int64  `json:"timeMillis"`
}

// lambdaA is the similarity threshold cmd/firehosed hard-codes when it builds
// the author graph; the in-process reference must use the same value.
const lambdaA = 0.7

// inputs is everything the daemon and the in-process reference receive, all
// derived from the seed alone.
type inputs struct {
	seed          int64
	followeesPath string
	followees     [][]int32
	subs          [][]int32 // as cmd/firehosed.buildGraph derives them
	graph         *authorsim.Graph
	social        *twittergen.SocialGraph
	streams       map[string][]post // generated on first use
	genSeconds    float64
}

// generateInputs builds the social graph of the given size for seed and
// writes followees.jsonl into dir. Streams are generated lazily by stream().
func generateInputs(seed int64, dir string, authors int) (*inputs, error) {
	start := time.Now()
	social, err := twittergen.GenerateGraph(rand.New(rand.NewSource(seed)), twittergen.DefaultGraphConfig(authors))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "followees.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	err = corpusio.WriteFollowees(f, social.Followees)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	in := &inputs{
		seed:          seed,
		followeesPath: path,
		followees:     social.Followees,
		subs:          subscriptions(social.Followees),
		graph:         authorsim.BuildGraph(authorsim.NewVectors(social.Followees), lambdaA),
		social:        social,
		streams:       make(map[string][]post),
	}
	in.genSeconds = time.Since(start).Seconds()
	return in, nil
}

// subscriptions derives each user's subscriptions exactly as
// cmd/firehosed.buildGraph does for a followees file: the followees that are
// themselves authors, deduplicated, in file order.
func subscriptions(followees [][]int32) [][]int32 {
	n := int32(len(followees))
	subs := make([][]int32, len(followees))
	for a, followed := range followees {
		seen := make(map[int32]bool, len(followed))
		for _, t := range followed {
			if t < n && !seen[t] {
				seen[t] = true
				subs[a] = append(subs[a], t)
			}
		}
	}
	return subs
}

// stream returns the full generated stream for spec, generating it once per
// process: the `paper` prefix three workloads share is built a single time.
func (in *inputs) stream(spec streamSpec) ([]post, error) {
	if ps, ok := in.streams[spec.name]; ok {
		return ps, nil
	}
	start := time.Now()
	cfg := twittergen.DefaultStreamConfig()
	cfg.PostsPerAuthorPerDay = spec.postsPerAuthor
	cfg.DurationMillis = spec.durationMillis
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(in.seed+1)), 5000)
	gs, err := twittergen.GenerateStream(rand.New(rand.NewSource(in.seed+2)), in.social, in.graph, vocab, cfg)
	if err != nil {
		return nil, err
	}
	ps := make([]post, len(gs.Posts))
	for i, p := range gs.Posts {
		ps[i] = post{Author: p.Author, Text: p.Text, TimeMillis: p.Time}
	}
	in.streams[spec.name] = ps
	in.genSeconds += time.Since(start).Seconds()
	return ps, nil
}

// inputDigest is the SHA-256 over the followees file and the posts the
// workload replays: two runs with the same digest fed the daemon the same
// bytes.
func (in *inputs) inputDigest(posts []post) (string, error) {
	h := sha256.New()
	data, err := os.ReadFile(in.followeesPath)
	if err != nil {
		return "", err
	}
	_, _ = h.Write(data) // hash.Hash.Write never fails
	var buf []byte
	for _, p := range posts {
		buf = strconv.AppendInt(buf[:0], int64(p.Author), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, p.TimeMillis, 10)
		buf = append(buf, '\t')
		buf = append(buf, p.Text...)
		buf = append(buf, '\n')
		_, _ = h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// requestBodies pre-encodes the workload's request bodies so JSON encoding on
// the client is not part of any timed interval.
func requestBodies(posts []post, batch int) ([][]byte, error) {
	bodies := make([][]byte, 0, len(posts)/batch)
	for i := 0; i < len(posts); i += batch {
		var v any = posts[i]
		if batch > 1 {
			v = struct {
				Posts []post `json:"posts"`
			}{posts[i : i+batch]}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}
