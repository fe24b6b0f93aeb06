//! White-box tests of [`Cache::converged_with`], compiled into the crate's
//! unit tests as a child of `cache` (`#[path]`, see the end of
//! `src/cache.rs`): the replacement state cannot be perturbed one field at a
//! time through the public interface — every hit moves `tick` and a stamp
//! together.

use super::*;

fn filled() -> Cache {
    let mut c = Cache::new(CacheGeometry {
        sets: 4,
        ways: 2,
        line_bytes: 64,
    });
    c.fill(0x0000, &[1; 64]); // set 0, way 0
    let (_, li) = c.fill(0x1040, &[2; 64]); // set 1, way 0
    c.write_resident(li, 0x1040, &[9]);
    c
}

#[test]
fn replacement_state_and_live_tags_are_compared_exactly() {
    let snap = filled();
    let perturbed = |f: &dyn Fn(&mut Cache)| {
        let mut c = snap.clone();
        f(&mut c);
        c.converged_with(&snap)
    };
    assert!(perturbed(&|_| ()));
    assert!(!perturbed(&|c| c.tick += 1), "tick");
    assert!(!perturbed(&|c| c.lru[0] += 1), "lru stamp, valid line");
    assert!(!perturbed(&|c| c.lru[7] += 1), "lru stamp, invalid line");
    assert!(!perturbed(&|c| c.tags[0] ^= 1), "tag, valid line");
    let (valid, dirty) = (1 << snap.geom.tag_bits(), 2 << snap.geom.tag_bits());
    assert!(!perturbed(&|c| c.tags[2] ^= dirty), "dirty bit, valid line");
    assert!(!perturbed(&|c| c.tags[2] ^= valid), "valid bit, valid line");
    assert!(
        !perturbed(&|c| c.tags[7] ^= valid),
        "valid bit, invalid line"
    );
    assert!(perturbed(&|c| c.tags[7] ^= 1), "tag, invalid line");
    assert!(
        perturbed(&|c| c.tags[7] ^= dirty),
        "dirty bit, invalid line"
    );
    assert!(
        perturbed(&|c| c.tags[7] ^= (valid - 1) | dirty),
        "every dead bit"
    );
}

#[test]
fn data_is_compared_where_the_line_is_valid_and_only_there() {
    let snap = filled();
    for li in 0..snap.tags.len() {
        let mut c = snap.clone();
        c.data[li * 64 + 63] ^= 0x80;
        assert_eq!(
            c.converged_with(&snap),
            !snap.meta_valid(li),
            "line {li}: a data byte counts exactly when the valid bit is set"
        );
    }
    assert_eq!((0..8).filter(|&li| snap.meta_valid(li)).count(), 2);
    // Occupying the line brings its data back into the comparison — and
    // `fill` has overwritten every byte of it by then.
    let mut c = snap.clone();
    c.data[7 * 64..8 * 64].fill(0xEE);
    let mut both = [c, snap.clone()];
    for c in &mut both {
        assert_eq!(c.fill(0x30C0, &[5; 64]).1, 6, "set 3, way 0");
        assert_eq!(c.fill(0x40C0, &[6; 64]).1, 7, "set 3, way 1");
    }
    assert!(both[0].converged_with(&both[1]));
}
