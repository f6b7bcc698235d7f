package simweb

import (
	"fmt"

	"mdq/internal/service"
)

// Open builds the built-in world with the given name — travel, bio,
// mashup or zipf — and returns its registry together with the
// world's canonical query text. opts applies to the travel world
// only (the other worlds have no latency knobs).
func Open(name string, opts TravelOptions) (*service.Registry, string, error) {
	switch name {
	case "travel":
		return NewTravelWorld(opts).Registry, RunningExampleText, nil
	case "bio":
		return NewBioWorld().Registry, BioExampleText, nil
	case "mashup":
		return NewMashupWorld().Registry, MashupExampleText, nil
	case "zipf":
		return NewZipfWorld(0, 0, 0).Registry, ZipfExampleText, nil
	default:
		return nil, "", fmt.Errorf("unknown world %q (want travel, bio, mashup or zipf)", name)
	}
}
