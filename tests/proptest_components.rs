//! Property tests for the supporting components: the corpus codec, the
//! collection builder's invariants, NN-search consistency, and the
//! signature generators' structural invariants on arbitrary inputs.

use proptest::prelude::*;
use silkmoth::core::{generate_signature, SigKind, SigParams};
use silkmoth::{Collection, InvertedIndex, SignatureScheme, Tokenization};

fn any_corpus() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec("[a-e ]{0,12}", 0..5), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_codec_roundtrip_any_corpus(corpus in any_corpus(), qgram in any::<bool>()) {
        let tok = if qgram { Tokenization::QGram { q: 2 } } else { Tokenization::Whitespace };
        let c = Collection::build(&corpus, tok);
        let back = silkmoth::collection::codec::decode(&silkmoth::collection::codec::encode(&c)).unwrap();
        prop_assert_eq!(back.len(), c.len());
        prop_assert_eq!(back.tokenization(), c.tokenization());
        for (a, b) in c.sets().iter().zip(back.sets()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(back.dict().len(), c.dict().len());
    }

    #[test]
    fn prop_collection_invariants(corpus in any_corpus(), qgram in any::<bool>()) {
        let tok = if qgram { Tokenization::QGram { q: 3 } } else { Tokenization::Whitespace };
        let c = Collection::build(&corpus, tok);
        let index = InvertedIndex::build(&c);
        for set in c.sets() {
            for e in set.elements.iter() {
                // Tokens sorted, distinct, and within the dictionary.
                prop_assert!(e.tokens().windows(2).all(|w| w[0] < w[1]));
                prop_assert!(e.tokens().iter().all(|&t| (t as usize) < c.dict().len()));
                // Every chunk id is one of the element's tokens.
                for &ch in e.chunks().iter() {
                    prop_assert!(e.tokens().binary_search(&ch).is_ok());
                }
            }
        }
        // Dictionary frequency == inverted list length, and ids are in
        // decreasing frequency order.
        for t in 0..c.dict().len() as u32 {
            prop_assert_eq!(c.dict().frequency(t) as usize, index.cost(t));
            if t > 0 {
                prop_assert!(c.dict().frequency(t - 1) >= c.dict().frequency(t));
            }
        }
    }

    #[test]
    fn prop_signature_structure(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[a-d]( [a-d]){0,4}", 1..5), 1..6),
        delta in 0.2f64..0.95,
        alpha in prop_oneof![Just(0.0), 0.3f64..0.9],
        scheme in prop_oneof![
            Just(SignatureScheme::Unweighted),
            Just(SignatureScheme::Weighted),
            Just(SignatureScheme::CombinedUnweighted),
            Just(SignatureScheme::Skyline),
            Just(SignatureScheme::Dichotomy),
        ],
    ) {
        let c = Collection::build(&corpus, Tokenization::Whitespace);
        let index = InvertedIndex::build(&c);
        let r = c.set(0);
        let theta = delta * r.len() as f64;
        let sig = generate_signature(
            r,
            scheme,
            SigParams { theta, alpha, kind: SigKind::Jaccard },
            &index,
        );
        prop_assert_eq!(sig.elems.len(), r.len());
        for (se, re) in sig.elems.iter().zip(r.elements.iter()) {
            // Signature tokens are a sorted subset of the element's tokens.
            prop_assert!(se.tokens.windows(2).all(|w| w[0] < w[1]));
            for t in &se.tokens {
                prop_assert!(re.tokens().binary_search(t).is_ok());
            }
            prop_assert!(se.units <= re.tokens().len());
            prop_assert!((0.0..=1.0).contains(&se.raw_bound));
            // Saturated elements hold at least the sim-thresh cap.
            if se.saturated {
                let cap = silkmoth::core::signature::sim_thresh_cap(
                    re.tokens().len(), re.tokens().len(), alpha, SigKind::Jaccard);
                prop_assert!(cap.is_some());
                prop_assert!(se.units >= cap.unwrap());
            }
        }
        // Non-degenerate signatures satisfy the validity sum.
        if !sig.degenerate && sig.check_prunable {
            prop_assert!(sig.sum_bound < theta);
        }
    }

    #[test]
    fn prop_encode_set_consistent_with_build(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[a-c]( [a-c]){0,3}", 1..4), 1..5),
    ) {
        // Encoding a set that also exists in the corpus yields the exact
        // same token ids as the built set.
        let c = Collection::build(&corpus, Tokenization::Whitespace);
        for (sid, raw_set) in corpus.iter().enumerate() {
            let strs: Vec<&str> = raw_set.iter().map(String::as_str).collect();
            let encoded = c.encode_set(&strs);
            let built = c.set(sid as u32);
            prop_assert_eq!(encoded.len(), built.len());
            for (a, b) in encoded.elements.iter().zip(built.elements.iter()) {
                prop_assert_eq!(a.tokens(), b.tokens());
            }
        }
    }
    // The element dictionary is invisible in what gets encoded: after a
    // build, and after a build followed by an append, every stored
    // element is what `encode_set` makes of its text on its own (token
    // ids, chunks, chars), and a token's frequency is the number of
    // occurrences that hold it — on a corpus of six texts, where nearly
    // every occurrence is a repeat. What the dictionary adds is
    // visible too: equal texts share one stored element and one id.
    #[test]
    fn prop_dictionary_encodes_like_every_occurrence_on_its_own(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[ab]( [ab]){0,1}", 1..5), 2..9),
        split in 0usize..9,
        qgram in any::<bool>(),
    ) {
        let tok = if qgram { Tokenization::QGram { q: 2 } } else { Tokenization::Whitespace };
        let split = split.min(corpus.len());
        let built = Collection::build(&corpus, tok);
        let mut appended = Collection::build(&corpus[..split], tok);
        appended.append_sets(&corpus[split..]);
        // Texts only a removed set held stay stored and are found again.
        let mut reappended = Collection::build(&corpus[..1], tok);
        reappended.remove_sets(&[0]).unwrap();
        reappended.append_sets(&corpus);

        for (c, first) in [(&built, 0), (&appended, 0), (&reappended, 1)] {
            let mut frequency = vec![0u32; c.dict().len()];
            let mut id_of_text = std::collections::HashMap::new();
            for (sid, raw_set) in corpus.iter().enumerate() {
                let stored = c.set((first + sid) as u32);
                prop_assert_eq!(&c.encode_set(raw_set), stored);
                for (text, e) in raw_set.iter().zip(stored.elements.iter()) {
                    let alone = &c.encode_set(std::slice::from_ref(text)).elements[0];
                    prop_assert_eq!(alone, e);
                    prop_assert_eq!(alone.id(), None);
                    for &t in alone.tokens().iter() {
                        frequency[t as usize] += 1;
                    }
                    let id = e.id().expect("stored elements have ids");
                    let (known_id, known) = *id_of_text.entry(text).or_insert((id, e));
                    prop_assert_eq!(known_id, id);
                    prop_assert!(std::sync::Arc::ptr_eq(known, e));
                }
            }
            if first == 1 {
                // The removed slot's occurrences still count (stale until
                // a compact, like its postings).
                for e in c.set(0).elements.iter() {
                    for &t in e.tokens().iter() {
                        frequency[t as usize] += 1;
                    }
                }
            }
            // Distinct texts, distinct ids, dense from 0.
            let ids: std::collections::BTreeSet<u32> =
                id_of_text.values().map(|&(id, _)| id).collect();
            prop_assert!(ids.into_iter().eq(0..id_of_text.len() as u32));
            let index = InvertedIndex::build(c);
            for t in 0..c.dict().len() as u32 {
                prop_assert_eq!(c.dict().frequency(t), frequency[t as usize]);
                prop_assert_eq!(index.cost(t), frequency[t as usize] as usize);
            }
        }
    }

    // What a posting says, on a corpus of six texts where sets hold a
    // text twice and share texts with each other: every list is sorted
    // by `(set, element id)` with one posting per element position, so
    // `|I[t]|` is the dictionary's frequency; a posting's id resolves to
    // an element of that set which contains the token, as often as the
    // set holds it; an index built in one go and one built over a prefix
    // and then appended to agree list for list; and `postings_in_set` is
    // the list filtered by set.
    #[test]
    fn prop_postings_name_the_elements_of_their_sets(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[ab]( [ab]){0,1}", 1..5), 2..9),
        split in 0usize..9,
        qgram in any::<bool>(),
    ) {
        let tok = if qgram { Tokenization::QGram { q: 2 } } else { Tokenization::Whitespace };
        let split = split.min(corpus.len());
        let mut c = Collection::build(&corpus[..split], tok);
        let mut index = InvertedIndex::build(&c);
        c.append_sets(&corpus[split..]);
        index.append_sets(&c, split as u32);
        let rebuilt = InvertedIndex::build(&c);
        prop_assert_eq!(index.num_tokens(), c.dict().len());
        prop_assert_eq!(index.num_tokens(), rebuilt.num_tokens());
        prop_assert_eq!(index.total_postings(), rebuilt.total_postings());

        let mut total = 0;
        for t in 0..index.num_tokens() as u32 {
            let list = index.list(t);
            prop_assert_eq!(list, rebuilt.list(t), "token {}", t);
            prop_assert!(list.windows(2).all(|w| w[0] <= w[1]), "token {} sorted", t);
            prop_assert_eq!(list.len(), c.dict().frequency(t) as usize);
            total += list.len();
            for sid in 0..c.len() as u32 {
                let run = index.postings_in_set(t, sid);
                let filtered: Vec<_> = list.iter().filter(|p| p.set == sid).copied().collect();
                prop_assert_eq!(run, &filtered[..], "token {} set {}", t, sid);
                // The run is the set's elements that contain the token,
                // position for position.
                let mut holders: Vec<u32> = c
                    .set(sid)
                    .elements
                    .iter()
                    .filter(|e| e.contains_token(t))
                    .map(|e| e.id().unwrap())
                    .collect();
                holders.sort_unstable();
                prop_assert_eq!(run.iter().map(|p| p.id).collect::<Vec<_>>(), holders);
                for p in run {
                    prop_assert!(c.element(p.id).contains_token(t));
                }
            }
        }
        prop_assert_eq!(index.total_postings(), total);
    }
}
