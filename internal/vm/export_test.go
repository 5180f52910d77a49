package vm

// Test-only access to the site superinstruction's internals (site.go) for
// the external test package, which needs real REFINE images and therefore
// cannot live inside package vm.

// FusedSites counts the heads currently fused in img.
func FusedSites(img *Image) int {
	heads, _ := SiteHeads(img)
	return len(heads)
}

// UnfuseSites demotes every fused head of img to its plain store, so a test
// can run the same image with and without the superinstruction.
func UnfuseSites(img *Image) {
	img.ensure()
	for i := range img.sites {
		img.unfuseSite(img.sites[i].head)
	}
}

// SiteHeads returns the head and post PCs of every fused site, in stream
// order of the heads.
func SiteHeads(img *Image) (heads, posts []int32) {
	img.ensure()
	for pc := range img.code {
		if u := &img.code[pc]; u.kind == uSITE {
			heads = append(heads, int32(pc))
			posts = append(posts, img.sites[u.tgt].post)
		}
	}
	return heads, posts
}
