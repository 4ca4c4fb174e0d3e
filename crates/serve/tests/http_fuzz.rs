//! Parser robustness for the hand-rolled HTTP/1.1 layer: for any byte
//! soup, any truncation of a valid request, and any adversarial split
//! of the stream into pushes (with empty pushes — wakeups that carried
//! no bytes — woven in), `RequestParser::push`/`try_next` must return a
//! request, "not yet", or a typed `ServeError`, and never panic. This is
//! the contract the event loop relies on: a hostile peer costs bounded
//! memory and a status code, not a thread.

use proptest::prelude::*;

use jvmsim_serve::http::{Request, RequestParser, ServeError, MAX_HEADER_BYTES};

/// Push `data` through a fresh parser in `chunks`-sized pieces (sizes
/// consumed round-robin; an empty list pushes everything at once, and a
/// `0` is an empty push), calling `try_next` after every push exactly as
/// the event loop does after every read. Returns the first request or
/// error, or `Ok(None)` once the bytes run out mid-request.
fn parse(data: &[u8], chunks: &[usize]) -> Result<Option<Request>, ServeError> {
    let mut parser = RequestParser::new();
    let (mut pos, mut next, mut stalled) = (0, 0, false);
    loop {
        if let Some(request) = parser.try_next()? {
            return Ok(Some(request));
        }
        if pos == data.len() {
            return Ok(None);
        }
        let want = match chunks {
            [] => data.len(),
            _ => chunks[next % chunks.len()],
        };
        next += 1;
        // Never two empty pushes in a row, so every chunking terminates.
        let n = if want == 0 && !stalled {
            0
        } else {
            want.max(1).min(data.len() - pos)
        };
        stalled = n == 0;
        parser.push(&data[pos..pos + n]);
        pos += n;
    }
}

/// A canonical valid request the structured properties perturb.
fn valid_request() -> Vec<u8> {
    b"POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 11\r\n\r\nhello world".to_vec()
}

#[test]
fn valid_request_parses_whole_or_split() {
    let whole = parse(&valid_request(), &[])
        .expect("valid request parses")
        .expect("and is complete");
    assert_eq!(whole.method, "POST");
    assert_eq!(whole.path, "/v1/run");
    assert_eq!(whole.body, b"hello world");
    let byte_at_a_time = parse(&valid_request(), &[1]).expect("split request parses");
    assert_eq!(Some(whole), byte_at_a_time);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        data in prop::collection::vec(any::<u8>(), 0..512),
        chunks in prop::collection::vec(0usize..17, 0..8),
    ) {
        // Any result is fine; returning at all is the property.
        let _ = parse(&data, &chunks);
    }

    #[test]
    fn truncated_valid_request_never_yields_a_request(
        cut in 0usize..64,
        chunks in prop::collection::vec(0usize..9, 0..6),
    ) {
        let full = valid_request();
        let cut = cut % full.len(); // every strict prefix
        let got = parse(&full[..cut], &chunks);
        prop_assert!(
            matches!(got, Ok(None)),
            "a strict prefix must stay incomplete: {got:?}"
        );
    }

    #[test]
    fn any_split_of_a_valid_request_parses_identically(
        chunks in prop::collection::vec(0usize..33, 1..8),
    ) {
        let want = parse(&valid_request(), &[]).expect("whole request parses");
        prop_assert_eq!(parse(&valid_request(), &chunks), Ok(want));
    }

    #[test]
    fn oversized_header_blocks_fail_closed(extra in 0usize..2048) {
        // A request line plus one header padded past MAX_HEADER_BYTES
        // with no terminating blank line: the parser must refuse with
        // HeadersTooLarge, not buffer without bound.
        let mut data = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        data.resize(MAX_HEADER_BYTES + 1 + extra, b'a');
        prop_assert_eq!(parse(&data, &[4096]), Err(ServeError::HeadersTooLarge));
    }

    #[test]
    fn garbage_request_lines_are_malformed_not_fatal(
        line in prop::collection::vec(0x20u8..0x7f, 0..48),
    ) {
        let mut data = line.clone();
        data.extend_from_slice(b"\r\n\r\n");
        // A terminated header block is always decided: a request (the
        // printable soup happened to be a valid request line) or a typed
        // client error.
        match parse(&data, &[7]) {
            Ok(got) => prop_assert!(got.is_some(), "a terminated block stayed incomplete"),
            Err(e) => prop_assert!(
                (400..500).contains(&e.status()),
                "unexpected error class {:?}", e
            ),
        }
    }
}
