package checkpoint

import (
	"fmt"
	"io"
	"regexp"
)

// Watermark-tagged checkpoints back the sharded deployment's coordinated
// durability: a shard worker's local checkpoint is keyed by the ROUTER's
// global id watermark at the coordination round that requested it, not by a
// local sequence number. The router only publishes its own meta checkpoint
// (and only acks its input) after every worker durably wrote the round's
// tagged file — so "a router checkpoint at watermark w exists" implies
// "every shard holds shard-<w>.fhc", which is exactly the file a crashed
// worker is rolled back to before the router replays the suffix. Files share
// the crash-safe publish dance (and the directory) with the sequential set;
// the name prefixes keep the two namespaces disjoint.

// taggedName formats the canonical file name for a watermark tag.
func taggedName(tag uint64) string { return fmt.Sprintf("shard-%d%s", tag, Ext) }

// taggedRe matches canonical tagged names, capturing the watermark.
var taggedRe = regexp.MustCompile(`^shard-(\d{1,19})\.fhc$`)

// WriteTagged durably writes one watermark-tagged checkpoint to dir,
// atomically replacing any previous checkpoint with the same tag. The
// returned File carries the tag in Seq.
func WriteTagged(dir string, tag uint64, snapshot func(w io.Writer) error) (File, error) {
	return publish(dir, taggedName(tag), tag, snapshot)
}

// ListTagged returns the tagged checkpoints in dir sorted by ascending
// watermark (File.Seq holds the tag). A missing directory is an empty list.
func ListTagged(dir string) ([]File, error) { return list(dir, taggedRe) }

// LatestTaggedAtMost returns the newest tagged checkpoint whose watermark is
// <= max; ok=false when none qualifies.
func LatestTaggedAtMost(dir string, max uint64) (f File, ok bool, err error) {
	files, err := ListTagged(dir)
	if err != nil {
		return File{}, false, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		if files[i].Seq <= max {
			return files[i], true, nil
		}
	}
	return File{}, false, nil
}

// PruneTagged deletes the oldest tagged checkpoints beyond keep and returns
// the ones removed. keep <= 0 keeps everything.
func PruneTagged(dir string, keep int) ([]File, error) { return prune(dir, taggedRe, keep) }
