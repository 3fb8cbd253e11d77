type t = { min : float; avg : float; median : float; max : float }

let of_list xs =
  match xs with
  | [] -> invalid_arg "Summary.of_list: empty"
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      let median =
        if n mod 2 = 1 then arr.(n / 2)
        else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0
      in
      {
        min = arr.(0);
        avg = Array.fold_left ( +. ) 0.0 arr /. float_of_int n;
        median;
        max = arr.(n - 1);
      }
