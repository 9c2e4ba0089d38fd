//! Archive assembly from externally maintained label state.
//!
//! The staged [`SchemeBuilder`](crate::scheme::SchemeBuilder) owns the whole
//! labeling while it is built; the dynamic-maintenance layer (`ftc-dyn`)
//! instead keeps the labeling *parts* alive across edge churn — ancestry
//! labels, endpoint pairs, and a payload slab of syndrome words that is
//! already in archive word order — and re-emits an archive after each batch
//! of updates. [`assemble_archive_into`] is that write end: it lays the
//! parts out with exactly the arithmetic of the streaming build path
//! (`stream_from_build`), so a dynamic commit produces the same framing
//! bytes a from-scratch build of the same labeling would, and skips the
//! O(archive) re-validation pass of [`LabelStore::open`] because every
//! invariant it checks holds by construction. The labeling's identity
//! (header, geometry) lives in the archive header alone, so a commit that
//! stamps a new tag rewrites that header and no record.
//!
//! The payload slab layout is the v1 record layout: edge `e`'s
//! words occupy `payload[e*w..(e+1)*w]` where `w` is
//! `payload_words(encoding, k, levels)`, level-major within the record
//! (level 0 first), `2k` words per level for [`EdgeEncoding::Full`] and `k`
//! for [`EdgeEncoding::Compact`].

use crate::ancestry::AncestryLabel;
use crate::labels::{EndpointIndex, LabelHeader};
use crate::serial::EDGE_PREFIX_BYTES;
use crate::store::{
    seal_v1_checksum, write_edge_prefix, write_framing, ArchiveMeta, EdgeEncoding, LabelStore,
};

/// One edge record of an assembled archive: its endpoint pair (archive
/// lookup key) and the two ancestry labels of its σ(e) tree edge.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRecordSpec {
    /// One endpoint (orientation is irrelevant; the endpoint index
    /// normalizes).
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Ancestry label of the upper (parent-side) endpoint of σ(e).
    pub anc_upper: AncestryLabel,
    /// Ancestry label of the lower (subtree-root) endpoint of σ(e).
    pub anc_lower: AncestryLabel,
}

/// Assembles a sealed v1 archive from labeling parts, writing into a
/// recycled allocation.
///
/// `payload` is the caller-maintained syndrome slab described in the
/// [module docs](self): `edges.len() * payload_words(encoding, k, levels)`
/// words, record-major then level-major. The returned store is fully
/// usable (views, sessions, serving) without a re-validation pass.
///
/// Multi-megabyte archives sit above the allocator's mmap threshold, so
/// a fresh `Vec` per commit pays a fresh set of soft page faults for
/// the whole blob — at steady churn rates that tax is most of the commit.
/// Passing a retired archive's buffer (see
/// `DynamicScheme::recycle` in `ftc-dyn`, which feeds
/// [`LabelStore::into_vec`] back here) keeps the pages mapped and warm
/// across commits. `scratch` may be empty, too small, or oversized; its
/// contents are irrelevant.
///
/// # Panics
///
/// Panics if the slab or label-vector lengths disagree with the declared
/// geometry, if `k == 0`, or if duplicate endpoint pairs are supplied
/// (the endpoint index must cover every record — parallel edges are the
/// static builder's domain).
#[allow(clippy::too_many_arguments)]
pub fn assemble_archive_into(
    scratch: Vec<u8>,
    header: LabelHeader,
    encoding: EdgeEncoding,
    k: usize,
    levels: usize,
    vertex_anc: &[AncestryLabel],
    edges: &[EdgeRecordSpec],
    payload: &[u64],
) -> LabelStore {
    assert!(k > 0, "assemble_archive_into: k must be positive");
    let index = EndpointIndex::from_edges(edges.iter().map(|e| (e.u as usize, e.v as usize)));
    assert_eq!(
        index.len(),
        edges.len(),
        "assemble_archive_into: duplicate endpoint pairs in edge records"
    );
    let meta = ArchiveMeta::new(
        header,
        encoding,
        (vertex_anc.len(), edges.len(), index.len()),
        (k, levels),
    )
    .expect("archive length fits in memory");
    let words = meta.words();
    assert_eq!(
        payload.len(),
        meta.m * words,
        "assemble_archive_into: payload slab does not match m * payload_words"
    );
    // Reuse the caller's scratch allocation when it is large enough.
    // Every byte of the archive below `len` is written before sealing
    // (framing, record prefixes, payload words, trailing checksum), so
    // stale scratch contents never leak into the output — only the grown
    // tail of an undersized scratch needs the `resize` zero-fill.
    let mut buf = scratch;
    buf.resize(meta.len, 0);
    write_framing(&mut buf, &meta, &index, |v| vertex_anc[v]);
    for (e, spec) in edges.iter().enumerate() {
        let at = meta.edges_at + e * meta.record_len;
        write_edge_prefix(&mut buf, at, &spec.anc_upper, &spec.anc_lower);
        let dst = &mut buf[at + EDGE_PREFIX_BYTES..at + meta.record_len];
        let src = &payload[e * words..(e + 1) * words];
        #[cfg(target_endian = "little")]
        {
            // The archive stores payload words little-endian, so on LE
            // hosts the slab's in-memory bytes are already the wire
            // bytes — one bulk copy per record instead of a word loop.
            // SAFETY: `src` is a valid, initialized `&[u64]`; every byte
            // of a u64 is initialized, and u8 has no alignment
            // requirement, so reinterpreting the region as bytes of
            // length `8 * src.len()` is sound.
            let src_bytes =
                unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), 8 * src.len()) };
            dst.copy_from_slice(src_bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for (chunk, &w) in dst.chunks_exact_mut(8).zip(src) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
    }
    seal_v1_checksum(&mut buf);
    LabelStore::from_parts_trusted(buf, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::scheme::FtcScheme;
    use crate::store::payload_words;
    use ftc_graph::Graph;

    /// Re-assembling a built labeling from its extracted parts reproduces
    /// the archive byte-for-byte — the framing arithmetic is genuinely
    /// shared with the builder's write path.
    #[test]
    fn reassembled_parts_match_builder_bytes() {
        let g = Graph::torus(3, 4);
        let scheme = FtcScheme::build(&g, &Params::deterministic(2)).unwrap();
        for encoding in [EdgeEncoding::Full, EdgeEncoding::Compact] {
            let blob = LabelStore::to_vec(scheme.labels(), encoding);
            let view = LabelStore::open(blob.clone()).unwrap();
            let (k, levels) = (view.k(), view.levels());
            let words = payload_words(encoding, k, levels);
            let vertex_anc: Vec<AncestryLabel> = (0..view.n())
                .map(|v| view.vertex(v).unwrap().to_label().anc)
                .collect();
            let mut edges = Vec::new();
            let mut payload = vec![0u64; view.m() * words];
            for e in 0..view.m() {
                let (u, v) = view
                    .endpoint_index()
                    .find(|&(_, _, id)| id == e)
                    .map(|(u, v, _)| (u as u32, v as u32))
                    .unwrap();
                let lab = view.edge_by_id(e).unwrap().to_label();
                edges.push(EdgeRecordSpec {
                    u,
                    v,
                    anc_upper: lab.anc_upper,
                    anc_lower: lab.anc_lower,
                });
                // Project the expanded 2k-per-level rows back down to the
                // stored word layout (full: all rows; compact: the odd
                // power sums at even indices).
                let raw = lab.vec.raw();
                let dst = &mut payload[e * words..(e + 1) * words];
                for lvl in 0..levels {
                    let src = &raw[lvl * 2 * k..(lvl + 1) * 2 * k];
                    match encoding {
                        EdgeEncoding::Full => {
                            for (d, s) in dst[lvl * 2 * k..(lvl + 1) * 2 * k].iter_mut().zip(src) {
                                *d = s.to_bits();
                            }
                        }
                        EdgeEncoding::Compact => {
                            for (d, s) in dst[lvl * k..(lvl + 1) * k]
                                .iter_mut()
                                .zip(src.iter().step_by(2))
                            {
                                *d = s.to_bits();
                            }
                        }
                    }
                }
            }
            let store = assemble_archive_into(
                Vec::new(),
                view.header(),
                encoding,
                k,
                levels,
                &vertex_anc,
                &edges,
                &payload,
            );
            assert_eq!(store.as_bytes(), &blob[..], "encoding {encoding:?}");
            // Scratch reuse must not leak stale bytes into the output:
            // a dirty oversized buffer and a dirty undersized one both
            // reproduce the fresh assembly exactly.
            for scratch in [vec![0xAB; blob.len() + 4096], vec![0xCD; blob.len() / 2]] {
                let recycled = assemble_archive_into(
                    scratch,
                    view.header(),
                    encoding,
                    k,
                    levels,
                    &vertex_anc,
                    &edges,
                    &payload,
                );
                assert_eq!(
                    recycled.as_bytes(),
                    &blob[..],
                    "recycled, encoding {encoding:?}"
                );
            }
        }
    }
}
