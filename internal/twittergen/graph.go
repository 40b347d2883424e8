package twittergen

import (
	"fmt"
	"math/rand"
)

// GraphConfig parameterizes the synthetic follower graph. The generator
// plants interest communities with internal topic structure:
//
//   - every community has a small *core pool* of identity accounts that all
//     members follow heavily, giving every same-community pair a baseline
//     followee overlap (cosine ≈ 0.2, the weak-similarity band of Figure 9);
//   - every community also has TopicsPerCommunity *topic pools*; each member
//     engages with TopicsPerAuthor of them. Pairs sharing two or more topics
//     cross the strong-similarity threshold (cosine ≥ 0.3, the λa = 0.7
//     edge), and the cohort sharing a specific topic pair forms a bounded
//     clique — which is what keeps the clique edge cover's average clique
//     size near the paper's s ≈ 20 even at the 20,150-author scale, instead
//     of degenerating into community-wide cliques;
//   - a Zipf-popular celebrity tier and uniform random follows provide the
//     heavy-tailed in-degree and the long near-zero similarity tail.
//
// The resulting pairwise-similarity CCDF matches Figure 9 (≈2.3% of pairs at
// ≥ 0.2, ≈0.6% at ≥ 0.3) at every scale, because both the community size and
// the topic cohorts scale with the author count.
type GraphConfig struct {
	// NumAuthors is the number of authors (graph nodes producing posts).
	NumAuthors int
	// CommunitySize is the number of authors per planted community.
	CommunitySize int

	// CorePoolSize is the number of community-identity accounts;
	// CoreFollowsMin/Max bound how many of them each member follows.
	CorePoolSize                   int
	CoreFollowsMin, CoreFollowsMax int

	// TopicsPerCommunity is the number of topic pools per community,
	// TopicPoolSize the accounts per topic pool, TopicsPerAuthor how many
	// distinct topics each member engages with, and
	// TopicFollowsMin/Max how many accounts the member follows per topic.
	TopicsPerCommunity, TopicPoolSize, TopicsPerAuthor int
	TopicFollowsMin, TopicFollowsMax                   int

	// CelebrityCount is the size of the global celebrity tier every author
	// may follow; CelebrityFollows is how many each author follows
	// (Zipf-weighted toward the top). Celebrities are the first
	// CelebrityCount authors themselves, giving the follower graph the
	// heavy-tailed in-degree of real social networks.
	CelebrityCount, CelebrityFollows int
	// RandomFollows is the number of uniform random follows per author,
	// linking communities so BFS sampling can traverse the graph.
	RandomFollows int
	// CoMemberFollowsMax bounds how many same-community authors each author
	// follows (uniform 0..max). Co-member follows are what make users
	// subscribe to clusters of mutually similar authors — the condition
	// under which the multi-user S_* algorithms share components.
	CoMemberFollowsMax int
}

// Validate reports configuration errors.
func (c GraphConfig) Validate() error {
	switch {
	case c.NumAuthors <= 0:
		return fmt.Errorf("twittergen: NumAuthors must be positive, got %d", c.NumAuthors)
	case c.CommunitySize <= 1:
		return fmt.Errorf("twittergen: CommunitySize must be > 1, got %d", c.CommunitySize)
	case c.CorePoolSize <= 0:
		return fmt.Errorf("twittergen: CorePoolSize must be positive, got %d", c.CorePoolSize)
	case c.CoreFollowsMin < 0 || c.CoreFollowsMax < c.CoreFollowsMin:
		return fmt.Errorf("twittergen: bad core follow bounds [%d,%d]", c.CoreFollowsMin, c.CoreFollowsMax)
	case c.CoreFollowsMax > c.CorePoolSize:
		return fmt.Errorf("twittergen: CoreFollowsMax %d exceeds CorePoolSize %d", c.CoreFollowsMax, c.CorePoolSize)
	case c.TopicsPerCommunity <= 0 || c.TopicPoolSize <= 0:
		return fmt.Errorf("twittergen: topic pools must be positive")
	case c.TopicsPerAuthor <= 0 || c.TopicsPerAuthor > c.TopicsPerCommunity:
		return fmt.Errorf("twittergen: TopicsPerAuthor %d outside [1,%d]", c.TopicsPerAuthor, c.TopicsPerCommunity)
	case c.TopicFollowsMin < 0 || c.TopicFollowsMax < c.TopicFollowsMin:
		return fmt.Errorf("twittergen: bad topic follow bounds [%d,%d]", c.TopicFollowsMin, c.TopicFollowsMax)
	case c.TopicFollowsMax > c.TopicPoolSize:
		return fmt.Errorf("twittergen: TopicFollowsMax %d exceeds TopicPoolSize %d", c.TopicFollowsMax, c.TopicPoolSize)
	case c.CelebrityCount < 0 || c.RandomFollows < 0 || c.CelebrityFollows < 0 || c.CoMemberFollowsMax < 0:
		return fmt.Errorf("twittergen: negative follow counts")
	case c.CelebrityFollows > 0 && c.CelebrityCount == 0:
		return fmt.Errorf("twittergen: CelebrityFollows without celebrities")
	case c.CelebrityCount > c.NumAuthors:
		return fmt.Errorf("twittergen: CelebrityCount %d exceeds NumAuthors %d", c.CelebrityCount, c.NumAuthors)
	}
	return nil
}

// DefaultGraphConfig returns a configuration calibrated so the followee
// cosine-similarity CCDF matches Figure 9 at any scale. Same-community
// pairs land near similarity 0.2 via the core pool; pairs sharing ≥2 of the
// community's 12 topics land near 0.3; topic-pair cohorts bound the strong
// cliques to ≈ CommunitySize/11 members.
func DefaultGraphConfig(numAuthors int) GraphConfig {
	community := numAuthors / 40 // ~2.5% of authors per community
	if community < 8 {
		community = 8
	}
	celebs := 50
	if celebs > numAuthors {
		celebs = numAuthors
	}
	return GraphConfig{
		NumAuthors:         numAuthors,
		CommunitySize:      community,
		CorePoolSize:       44,
		CoreFollowsMin:     20,
		CoreFollowsMax:     28,
		TopicsPerCommunity: 9,
		TopicPoolSize:      40,
		TopicsPerAuthor:    3,
		TopicFollowsMin:    20,
		TopicFollowsMax:    30,
		CelebrityCount:     celebs,
		CelebrityFollows:   5,
		RandomFollows:      10,
		CoMemberFollowsMax: 26,
	}
}

// SocialGraph is the generated follower graph: Followees[a] lists the
// account ids author a follows. Account ids 0..NumAuthors-1 are the authors
// themselves (the first CelebrityCount double as the celebrity tier); higher
// ids are non-author accounts (community core and topic pools), exactly as a
// Twitter crawl contains followees outside the sampled author set.
type SocialGraph struct {
	Followees [][]int32
	// Community[a] is the community index of author a.
	Community []int
	// Topics[a] lists the topic indices (within a's community) author a
	// engages with.
	Topics [][]int
	// NumAccounts is the total id universe (authors + pool accounts).
	NumAccounts int
}

// NumCommunities returns the number of planted communities.
func (sg *SocialGraph) NumCommunities() int {
	n := 0
	for _, c := range sg.Community {
		if c+1 > n {
			n = c + 1
		}
	}
	return n
}

// SameCommunity reports whether two authors share a planted community.
func (sg *SocialGraph) SameCommunity(a, b int32) bool {
	return sg.Community[a] == sg.Community[b]
}

// Subscriptions derives the M-SPSD subscription lists from the follower
// graph, as the paper does for Figure 16: every author is also a user, and a
// user's subscriptions are the followees that are themselves authors
// (deduplicated; follows of pool accounts are not subscriptions).
func (sg *SocialGraph) Subscriptions() [][]int32 {
	n := len(sg.Followees)
	subs := make([][]int32, n)
	for a, fs := range sg.Followees {
		seen := make(map[int32]bool, len(fs))
		for _, t := range fs {
			if int(t) < n && !seen[t] {
				seen[t] = true
				subs[a] = append(subs[a], t)
			}
		}
	}
	return subs
}

// GenerateGraph builds the synthetic follower graph.
func GenerateGraph(rng *rand.Rand, cfg GraphConfig) (*SocialGraph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumAuthors
	numCommunities := (n + cfg.CommunitySize - 1) / cfg.CommunitySize

	// Id layout: [0,n) authors, then per community a core pool followed by
	// its topic pools.
	poolBase := n
	communityPoolSpan := cfg.CorePoolSize + cfg.TopicsPerCommunity*cfg.TopicPoolSize
	numAccounts := poolBase + numCommunities*communityPoolSpan

	sg := &SocialGraph{
		Followees:   make([][]int32, n),
		Community:   make([]int, n),
		Topics:      make([][]int, n),
		NumAccounts: numAccounts,
	}
	var celebZipf *rand.Zipf
	if cfg.CelebrityCount > 0 {
		celebZipf = rand.NewZipf(rng, 1.2, 1.0, uint64(cfg.CelebrityCount-1))
	}

	for a := 0; a < n; a++ {
		community := a / cfg.CommunitySize
		sg.Community[a] = community
		corePool := poolBase + community*communityPoolSpan
		topicBase := corePool + cfg.CorePoolSize
		commStart := community * cfg.CommunitySize
		commEnd := commStart + cfg.CommunitySize
		if commEnd > n {
			commEnd = n
		}

		var follows []int32
		// Core pool follows: the community-identity accounts.
		k := uniformIn(rng, cfg.CoreFollowsMin, cfg.CoreFollowsMax)
		for _, idx := range rng.Perm(cfg.CorePoolSize)[:k] {
			follows = append(follows, int32(corePool+idx))
		}
		// Topic follows: TopicsPerAuthor distinct topics, a slice of each.
		topics := rng.Perm(cfg.TopicsPerCommunity)[:cfg.TopicsPerAuthor]
		sg.Topics[a] = topics
		for _, topic := range topics {
			pool := topicBase + topic*cfg.TopicPoolSize
			tk := uniformIn(rng, cfg.TopicFollowsMin, cfg.TopicFollowsMax)
			for _, idx := range rng.Perm(cfg.TopicPoolSize)[:tk] {
				follows = append(follows, int32(pool+idx))
			}
		}
		// Celebrity follows, Zipf-weighted toward the global top authors.
		for i := 0; i < cfg.CelebrityFollows; i++ {
			t := int32(celebZipf.Uint64())
			if t != int32(a) {
				follows = append(follows, t)
			}
		}
		// Same-community author follows: the subscriptions that cluster a
		// user's timeline around mutually similar authors.
		if cfg.CoMemberFollowsMax > 0 && commEnd-commStart > 1 {
			for i, m := 0, rng.Intn(cfg.CoMemberFollowsMax+1); i < m; i++ {
				t := int32(commStart + rng.Intn(commEnd-commStart))
				if t != int32(a) {
					follows = append(follows, t)
				}
			}
		}
		// Uniform random follows over the author universe (links communities
		// for BFS reachability; contributes near-zero similarity).
		for i := 0; i < cfg.RandomFollows; i++ {
			t := int32(rng.Intn(n))
			if t != int32(a) {
				follows = append(follows, t)
			}
		}
		sg.Followees[a] = follows
	}
	return sg, nil
}

func uniformIn(rng *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}
