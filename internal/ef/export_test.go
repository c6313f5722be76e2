package ef

// LiveRegions returns how many regions are mapped and not yet unmapped.
func LiveRegions() int64 { return liveRegions.Load() }

// RegionsPerForcedGC is how many regions of the usual size may be mapped
// between two collections the package forces.
const RegionsPerForcedGC = regionGCBytes / (regionWords * 8)
