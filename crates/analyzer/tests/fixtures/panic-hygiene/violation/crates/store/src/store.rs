//! Three ways a store read dies on a malformed entry file.

pub fn decode(line: &str) -> u64 {
    let n: u64 = line.parse().unwrap();
    if n > 100 {
        panic!("too big");
    }
    let xs = [1u64, 2, 3];
    xs[n as usize]
}
